package apps

import (
	"encoding/binary"
	"sort"

	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// KVStore is the multi-tenant key-value-store accelerator from the paper's
// §2 scenario (and the Caribou multi-tenancy discussion in §5). Each
// process context is an isolated tenant with its own keyspace. The
// accelerator is *preemptible*: per-context state can be saved, restored
// and killed, so a fault in one tenant's context does not fail-stop the
// tile (paper §4.4).
//
// Request payload:  op(1) klen(2) key vlen(2) value
// Reply payload:    status(1) [value]      status: 0 ok, 1 not-found
type KVStore struct {
	tenants []map[string]string
	busyTil sim.Cycle
	out     outQ

	// SegRef, when set to a valid segment capability reference, enables
	// KVSnap/KVRestore persistence through the memory service.
	SegRef uint32

	memSeq  uint32
	pendMem map[uint32]pendingMemOp

	// Ops counts successful operations per tenant (observability).
	Ops []uint64
}

// pendingMemOp tracks one in-flight snapshot/restore.
type pendingMemOp struct {
	reply   pendEntry
	ctx     uint8
	restore bool
}

// KV opcodes. KVSnap/KVRestore checkpoint one tenant's keyspace into the
// store's memory segment through the memory service — the "state that it
// needs to maintain between invocations" of the paper's microservice
// discussion (§1), surviving a tile reconfiguration.
const (
	KVPut     = 1
	KVGet     = 2
	KVDel     = 3
	KVSnap    = 4
	KVRestore = 5
)

// EncodeKVReq builds a request payload.
func EncodeKVReq(op byte, key, value string) []byte {
	b := make([]byte, 0, 5+len(key)+len(value))
	b = append(b, op)
	var u [2]byte
	binary.LittleEndian.PutUint16(u[:], uint16(len(key)))
	b = append(b, u[0], u[1])
	b = append(b, key...)
	binary.LittleEndian.PutUint16(u[:], uint16(len(value)))
	b = append(b, u[0], u[1])
	b = append(b, value...)
	return b
}

// DecodeKVReq parses a request payload.
func DecodeKVReq(b []byte) (op byte, key, value string, ok bool) {
	if len(b) < 5 {
		return 0, "", "", false
	}
	op = b[0]
	kl := int(binary.LittleEndian.Uint16(b[1:]))
	if len(b) < 3+kl+2 {
		return 0, "", "", false
	}
	key = string(b[3 : 3+kl])
	vl := int(binary.LittleEndian.Uint16(b[3+kl:]))
	if len(b) < 5+kl+vl {
		return 0, "", "", false
	}
	value = string(b[5+kl : 5+kl+vl])
	return op, key, value, true
}

// NewKVStore builds a store with the given tenant (context) count.
func NewKVStore(tenants int) *KVStore {
	if tenants < 1 {
		tenants = 1
	}
	kv := &KVStore{Ops: make([]uint64, tenants), pendMem: make(map[uint32]pendingMemOp)}
	kv.tenants = make([]map[string]string, tenants)
	for i := range kv.tenants {
		kv.tenants[i] = make(map[string]string)
	}
	return kv
}

// Name implements accel.Accelerator.
func (k *KVStore) Name() string { return "kvstore" }

// Contexts implements accel.Accelerator.
func (k *KVStore) Contexts() int { return len(k.tenants) }

// Reset implements accel.Accelerator.
func (k *KVStore) Reset() {
	for i := range k.tenants {
		k.tenants[i] = make(map[string]string)
	}
	k.out = outQ{}
	k.busyTil = 0
	k.pendMem = make(map[uint32]pendingMemOp)
	// SegRef survives reset: the capability slot is re-installed by the
	// kernel with the tile's configuration, not by the accelerator.
}

// Idle implements accel.Idler: with an empty shell queue and nothing due to
// send, Tick does nothing until the send queue's head comes due
// (NextWake). In-flight memory ops (pendMem) wake the tile when their
// TMemReply is delivered.
func (k *KVStore) Idle() bool { return k.out.idle() }

// NextWake implements sim.Waker.
func (k *KVStore) NextWake() sim.Cycle { return k.out.nextWake() }

// Quiescent implements accel.Quiescer: the store holds no in-flight work
// once its send queue is empty AND no memory-service op is outstanding —
// Idle alone would let a checkpoint race an in-flight KVSnap/KVRestore.
func (k *KVStore) Quiescent() bool { return k.out.empty() && len(k.pendMem) == 0 }

// SetSegRef re-points the store at its snapshot segment reference. The
// kernel calls this after migration: the app lands in a new region whose
// segment capability may occupy a different table slot, and the reference
// is architectural state the snapshot deliberately does not carry.
func (k *KVStore) SetSegRef(ref uint32) { k.SegRef = ref }

// Tick implements accel.Accelerator. While a snapshot/restore is in flight
// the store stops accepting new requests: memory-service completions are
// asynchronous, and serving reads against a half-restored keyspace would
// violate the checkpoint's atomicity.
func (k *KVStore) Tick(p accel.Port) {
	now := p.Now()
	if now >= k.busyTil {
		if m, ok := p.Recv(); ok {
			if m.Type == msg.TRequest && len(k.pendMem) > 0 {
				// Stall: requeue is not possible, so bounce with EBusy;
				// the shell queue plus this are the flow-control story.
				k.out.push(now, m.ErrorReply(msg.EBusy))
			} else {
				k.handle(m, now)
			}
		}
	}
	k.out.flush(p)
}

func (k *KVStore) handle(m *msg.Message, now sim.Cycle) {
	if m.Type == msg.TMemReply || m.Type == msg.TError {
		k.handleMemReply(m, now)
		return
	}
	if m.Type != msg.TRequest {
		return
	}
	if int(m.DstCtx) >= len(k.tenants) {
		k.out.push(now, m.ErrorReply(msg.ENoContext))
		return
	}
	op, key, value, ok := DecodeKVReq(m.Payload)
	if !ok {
		k.out.push(now, m.ErrorReply(msg.EBadMsg))
		return
	}
	if op == KVSnap || op == KVRestore {
		k.startMemOp(m, op == KVRestore, now)
		return
	}
	t := k.tenants[m.DstCtx]
	// Hash-probe pipeline: a handful of cycles per op.
	k.busyTil = now + 6
	var reply []byte
	switch op {
	case KVPut:
		t[key] = value
		reply = []byte{0}
	case KVGet:
		v, found := t[key]
		if !found {
			reply = []byte{1}
		} else {
			reply = append([]byte{0}, v...)
		}
	case KVDel:
		if _, found := t[key]; !found {
			reply = []byte{1}
		} else {
			delete(t, key)
			reply = []byte{0}
		}
	default:
		k.out.push(now, m.ErrorReply(msg.EBadMsg))
		return
	}
	k.Ops[m.DstCtx]++
	k.out.push(k.busyTil, m.Reply(msg.TReply, reply))
}

// snapSlotBytes is the per-tenant region inside the store's segment.
const snapSlotBytes = 4096

// startMemOp issues the memory-service side of KVSnap/KVRestore. Each
// tenant checkpoints into its own snapSlotBytes slot: [len u32][state].
func (k *KVStore) startMemOp(m *msg.Message, restore bool, now sim.Cycle) {
	if k.SegRef == 0 {
		k.out.push(now, m.ErrorReply(msg.ENoCap))
		return
	}
	ctx := m.DstCtx
	off := uint64(ctx) * snapSlotBytes
	seq := 0x80000000 | k.memSeq // high bit avoids client-seq collisions
	k.memSeq++
	var req *msg.Message
	if restore {
		req = &msg.Message{
			Type: msg.TMemRead, DstSvc: msg.SvcMemory, CapRef: k.SegRef, Seq: seq,
			Payload: msg.EncodeMemReq(msg.MemReq{Offset: off, Length: snapSlotBytes}),
		}
	} else {
		state, err := k.SaveContext(ctx)
		if err != nil || 4+len(state) > snapSlotBytes {
			k.out.push(now, m.ErrorReply(msg.ETooBig))
			return
		}
		buf := make([]byte, 4+len(state))
		binary.LittleEndian.PutUint32(buf, uint32(len(state)))
		copy(buf[4:], state)
		req = &msg.Message{
			Type: msg.TMemWrite, DstSvc: msg.SvcMemory, CapRef: k.SegRef, Seq: seq,
			Payload: msg.EncodeMemReq(msg.MemReq{Offset: off, Data: buf}),
		}
	}
	k.pendMem[seq] = pendingMemOp{
		reply:   pendEntry{tile: m.SrcTile, ctx: m.SrcCtx, seq: m.Seq},
		ctx:     ctx,
		restore: restore,
	}
	k.out.push(now, req)
}

// handleMemReply completes an in-flight snapshot/restore.
func (k *KVStore) handleMemReply(m *msg.Message, now sim.Cycle) {
	op, ok := k.pendMem[m.Seq]
	if !ok {
		return
	}
	delete(k.pendMem, m.Seq)
	done := func(status byte) {
		k.out.push(now, &msg.Message{
			Type: msg.TReply, DstTile: op.reply.tile, DstCtx: op.reply.ctx,
			Seq: op.reply.seq, Payload: []byte{status},
		})
	}
	if m.Type == msg.TError {
		k.out.push(now, &msg.Message{
			Type: msg.TError, Err: m.Err, DstTile: op.reply.tile,
			DstCtx: op.reply.ctx, Seq: op.reply.seq,
		})
		return
	}
	if !op.restore {
		done(0)
		return
	}
	if len(m.Payload) < 4 {
		done(1)
		return
	}
	n := binary.LittleEndian.Uint32(m.Payload)
	if int(n) > len(m.Payload)-4 {
		done(1)
		return
	}
	if err := k.RestoreContext(op.ctx, m.Payload[4:4+n]); err != nil {
		done(1)
		return
	}
	k.Ops[op.ctx]++
	done(0)
}

// SaveContext implements accel.Preemptible: a deterministic serialization
// of one tenant's keyspace.
func (k *KVStore) SaveContext(ctx uint8) ([]byte, error) {
	if int(ctx) >= len(k.tenants) {
		return nil, msg.ENoContext.Error()
	}
	t := k.tenants[ctx]
	keys := make([]string, 0, len(t))
	for key := range t {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []byte
	var u [2]byte
	for _, key := range keys {
		binary.LittleEndian.PutUint16(u[:], uint16(len(key)))
		out = append(out, u[0], u[1])
		out = append(out, key...)
		v := t[key]
		binary.LittleEndian.PutUint16(u[:], uint16(len(v)))
		out = append(out, u[0], u[1])
		out = append(out, v...)
	}
	return out, nil
}

// RestoreContext implements accel.Preemptible.
func (k *KVStore) RestoreContext(ctx uint8, state []byte) error {
	if int(ctx) >= len(k.tenants) {
		return msg.ENoContext.Error()
	}
	t := make(map[string]string)
	i := 0
	for i+2 <= len(state) {
		kl := int(binary.LittleEndian.Uint16(state[i:]))
		i += 2
		if i+kl+2 > len(state) {
			return msg.EBadMsg.Error()
		}
		key := string(state[i : i+kl])
		i += kl
		vl := int(binary.LittleEndian.Uint16(state[i:]))
		i += 2
		if i+vl > len(state) {
			return msg.EBadMsg.Error()
		}
		t[key] = string(state[i : i+vl])
		i += vl
	}
	k.tenants[ctx] = t
	return nil
}

// KillContext implements accel.Preemptible.
func (k *KVStore) KillContext(ctx uint8) {
	if int(ctx) < len(k.tenants) {
		k.tenants[ctx] = make(map[string]string)
	}
}

// Len reports tenant ctx's key count (for tests).
func (k *KVStore) Len(ctx uint8) int { return len(k.tenants[ctx]) }
