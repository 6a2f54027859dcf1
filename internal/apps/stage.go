package apps

import (
	"encoding/binary"
	"sort"

	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// ProcessFunc transforms one request payload into an output payload. err
// (as an Apiary error code) aborts the request with a TError to the caller.
type ProcessFunc func(in []byte) (out []byte, code msg.ErrCode)

// StageConfig parameterizes a Stage accelerator.
type StageConfig struct {
	Name string
	// Process is the stage's kernel: a pure function of its input (the
	// stock stages all are).
	Process ProcessFunc
	// Next, when nonzero, forwards the processed output as a new request
	// to another service (pipeline composition, paper §2); the downstream
	// reply is routed back to the original requester. When zero the stage
	// replies directly.
	Next msg.ServiceID
	// BaseCycles + CyclesPerByte model the hardware pipeline's occupancy
	// per request.
	BaseCycles    sim.Cycle
	CyclesPerByte float64
}

// pendEntry remembers the original requester while a downstream call is in
// flight, plus the request's sideband trace context and send cycle (for
// proxy RTT observation).
type pendEntry struct {
	tile   msg.TileID
	ctx    uint8
	seq    uint32
	tc     msg.TraceCtx
	sentAt sim.Cycle
}

// timedMsg is a message that becomes sendable at a given cycle.
type timedMsg struct {
	at sim.Cycle
	m  *msg.Message
}

// outQ is a time-ordered send queue honouring monitor backpressure.
type outQ struct{ items []timedMsg }

func (q *outQ) push(at sim.Cycle, m *msg.Message) {
	q.items = append(q.items, timedMsg{at, m})
}

// empty reports whether no messages are queued (due now or later).
func (q *outQ) empty() bool { return len(q.items) == 0 }

// flush sends every due message; stops on backpressure (ERateLimited/EBusy)
// and drops on hard errors (the destination will have NACKed or is gone).
func (q *outQ) flush(p accel.Port) {
	for len(q.items) > 0 {
		it := q.items[0]
		if it.at > p.Now() {
			return
		}
		code := p.Send(it.m)
		if code == msg.ERateLimited || code == msg.EBusy {
			return // retry next tick
		}
		q.items = q.items[1:]
	}
}

// Stage is a generic single-context pipeline accelerator: consume a
// request, run the kernel, occupy the pipeline for the modelled time, then
// reply or forward. It is the workhorse behind the encoder, compressor,
// checksum and matvec accelerators.
type Stage struct {
	cfg     StageConfig
	busyTil sim.Cycle
	nextSeq uint32
	pend    map[uint32]pendEntry
	out     outQ

	processed uint64
	errors    uint64
}

// NewStage builds a Stage accelerator.
func NewStage(cfg StageConfig) *Stage {
	return &Stage{cfg: cfg, pend: make(map[uint32]pendEntry)}
}

// Processed reports requests completed by the kernel.
func (s *Stage) Processed() uint64 { return s.processed }

// Name implements accel.Accelerator.
func (s *Stage) Name() string { return s.cfg.Name }

// Contexts implements accel.Accelerator.
func (s *Stage) Contexts() int { return 1 }

// Reset implements accel.Accelerator.
func (s *Stage) Reset() {
	s.busyTil = 0
	s.pend = make(map[uint32]pendEntry)
	s.out = outQ{}
}

// Idle implements accel.Idler: with no inbound messages (the shell's
// precondition for consulting us) and nothing queued to send, Tick does
// nothing. Replies the stage is still waiting for arrive through the shell
// queue, which wakes the tile.
func (s *Stage) Idle() bool { return s.out.empty() }

// Quiescent implements accel.Quiescer: drained means nothing parked in the
// send queue and no downstream call still awaiting its reply.
func (s *Stage) Quiescent() bool { return s.out.empty() && len(s.pend) == 0 }

// Stage checkpoint layout (little-endian): nextSeq u32, processed u64,
// errors u64, pend count u32, then per entry (ascending downstream seq):
// dseq u32, tile u16, ctx u8, seq u32, sentAt u64, trace id/span u64 u64,
// trace origin u16.
const stageHdrBytes = 4 + 8 + 8 + 4
const stagePendBytes = 4 + 2 + 1 + 4 + 8 + 8 + 8 + 2

// SaveContext implements accel.Checkpointable (deterministic: the pend
// table serializes in ascending downstream-sequence order). Stage is
// deliberately NOT Preemptible — its single context has no isolation to
// offer, so a fault keeps fail-stopping the tile — but a quiescent stage
// checkpoints completely: counters, the sequence cursor, and any pend
// entries a non-quiescent save catches in flight.
func (s *Stage) SaveContext(ctx uint8) ([]byte, error) {
	if ctx != 0 {
		return nil, msg.ENoContext.Error()
	}
	seqs := make([]uint32, 0, len(s.pend))
	for seq := range s.pend {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]byte, stageHdrBytes, stageHdrBytes+len(seqs)*stagePendBytes)
	binary.LittleEndian.PutUint32(out[0:], s.nextSeq)
	binary.LittleEndian.PutUint64(out[4:], s.processed)
	binary.LittleEndian.PutUint64(out[12:], s.errors)
	binary.LittleEndian.PutUint32(out[20:], uint32(len(seqs)))
	var e [stagePendBytes]byte
	for _, dseq := range seqs {
		pe := s.pend[dseq]
		binary.LittleEndian.PutUint32(e[0:], dseq)
		binary.LittleEndian.PutUint16(e[4:], uint16(pe.tile))
		e[6] = pe.ctx
		binary.LittleEndian.PutUint32(e[7:], pe.seq)
		binary.LittleEndian.PutUint64(e[11:], uint64(pe.sentAt))
		binary.LittleEndian.PutUint64(e[19:], pe.tc.ID)
		binary.LittleEndian.PutUint64(e[27:], pe.tc.Span)
		binary.LittleEndian.PutUint16(e[35:], pe.tc.Origin)
		out = append(out, e[:]...)
	}
	return out, nil
}

// RestoreContext implements accel.Checkpointable. Bounds are validated
// before any mutation: a malformed blob returns an error with the stage
// untouched.
func (s *Stage) RestoreContext(ctx uint8, state []byte) error {
	if ctx != 0 {
		return msg.ENoContext.Error()
	}
	if len(state) < stageHdrBytes {
		return msg.EBadMsg.Error()
	}
	n := binary.LittleEndian.Uint32(state[20:])
	if uint64(len(state)) != uint64(stageHdrBytes)+uint64(n)*stagePendBytes {
		return msg.EBadMsg.Error()
	}
	pend := make(map[uint32]pendEntry, n)
	for i := uint32(0); i < n; i++ {
		e := state[stageHdrBytes+int(i)*stagePendBytes:]
		dseq := binary.LittleEndian.Uint32(e[0:])
		if _, dup := pend[dseq]; dup {
			return msg.EBadMsg.Error()
		}
		pend[dseq] = pendEntry{
			tile:   msg.TileID(binary.LittleEndian.Uint16(e[4:])),
			ctx:    e[6],
			seq:    binary.LittleEndian.Uint32(e[7:]),
			sentAt: sim.Cycle(binary.LittleEndian.Uint64(e[11:])),
			tc: msg.TraceCtx{
				ID:     binary.LittleEndian.Uint64(e[19:]),
				Span:   binary.LittleEndian.Uint64(e[27:]),
				Origin: binary.LittleEndian.Uint16(e[35:]),
			},
		}
	}
	s.nextSeq = binary.LittleEndian.Uint32(state[0:])
	s.processed = binary.LittleEndian.Uint64(state[4:])
	s.errors = binary.LittleEndian.Uint64(state[12:])
	s.pend = pend
	s.busyTil = 0 // occupancy is wall-clock state; a restored stage is free
	return nil
}

// cost models pipeline occupancy for n payload bytes.
func (s *Stage) cost(n int) sim.Cycle {
	return s.cfg.BaseCycles + sim.Cycle(s.cfg.CyclesPerByte*float64(n))
}

// Tick implements accel.Accelerator.
func (s *Stage) Tick(p accel.Port) {
	now := p.Now()
	// Accept one new request per tick when the pipeline is free.
	if now >= s.busyTil {
		if m, ok := p.Recv(); ok {
			s.handle(p, m, now)
		}
	}
	s.out.flush(p)
}

func (s *Stage) handle(p accel.Port, m *msg.Message, now sim.Cycle) {
	switch m.Type {
	case msg.TRequest, msg.TOneway:
		out, code := s.cfg.Process(m.Payload)
		if code != msg.EOK {
			s.errors++
			if m.Type == msg.TRequest {
				s.out.push(now, m.ErrorReply(code))
			}
			return
		}
		s.processed++
		done := now + s.cost(len(m.Payload))
		s.busyTil = done
		if s.cfg.Next == 0 {
			if m.Type == msg.TRequest {
				s.out.push(done, m.Reply(msg.TReply, out))
			}
			return
		}
		// Forward downstream; remember who asked.
		seq := s.nextSeq
		s.nextSeq++
		s.pend[seq] = pendEntry{tile: m.SrcTile, ctx: m.SrcCtx, seq: m.Seq, tc: m.Trace}
		s.out.push(done, &msg.Message{
			Type: msg.TRequest, DstSvc: s.cfg.Next, Seq: seq, Payload: out,
			Trace: m.Trace,
		})
	case msg.TReply, msg.TError:
		pe, ok := s.pend[m.Seq]
		if !ok {
			return
		}
		delete(s.pend, m.Seq)
		r := &msg.Message{
			Type: m.Type, Err: m.Err, DstTile: pe.tile, DstCtx: pe.ctx,
			Seq: pe.seq, Payload: m.Payload, Trace: m.Trace,
		}
		if !r.Trace.Valid() {
			r.Trace = pe.tc
		}
		s.out.push(now, r)
	}
}

// NewEncoder builds the §2 video-encoder accelerator. next is the
// compression service to compose with (0 = reply directly).
func NewEncoder(next msg.ServiceID) *Stage {
	return NewStage(StageConfig{
		Name: "videoenc",
		Process: func(in []byte) ([]byte, msg.ErrCode) {
			if len(in) == 0 {
				return nil, msg.EBadMsg
			}
			return EncodeFrame(in), msg.EOK
		},
		Next:          next,
		BaseCycles:    32,
		CyclesPerByte: 0.5, // 2 samples/cycle through the DCT pipe
	})
}

// NewCompressor builds the third-party compression accelerator.
func NewCompressor() *Stage {
	return NewStage(StageConfig{
		Name: "compress",
		Process: func(in []byte) ([]byte, msg.ErrCode) {
			return Compress(in), msg.EOK
		},
		BaseCycles:    16,
		CyclesPerByte: 0.25,
	})
}

// NewChecksum builds a checksum accelerator returning the FNV-1a digest.
func NewChecksum() *Stage {
	return NewStage(StageConfig{
		Name: "checksum",
		Process: func(in []byte) ([]byte, msg.ErrCode) {
			h := Checksum64(in)
			out := make([]byte, 8)
			for i := 0; i < 8; i++ {
				out[i] = byte(h >> (8 * i))
			}
			return out, msg.EOK
		},
		BaseCycles:    8,
		CyclesPerByte: 0.0625, // 16 bytes/cycle
	})
}

// NewMatVec builds an inference-style accelerator with fixed internal
// weights of the given shape; requests carry x (int8), replies carry the
// int32 result vector little-endian.
func NewMatVec(rows, cols int, seed uint64) *Stage {
	w := make([]int8, rows*cols)
	rng := sim.NewRNG(seed)
	for i := range w {
		w[i] = int8(rng.Intn(256) - 128)
	}
	return NewStage(StageConfig{
		Name: "matvec",
		Process: func(in []byte) ([]byte, msg.ErrCode) {
			if len(in) != cols {
				return nil, msg.EBadMsg
			}
			x := make([]int8, cols)
			for i, b := range in {
				x[i] = int8(b)
			}
			y, err := MatVec8(w, rows, cols, x)
			if err != nil {
				return nil, msg.EBadMsg
			}
			out := make([]byte, 4*rows)
			for i, v := range y {
				out[4*i] = byte(v)
				out[4*i+1] = byte(v >> 8)
				out[4*i+2] = byte(v >> 16)
				out[4*i+3] = byte(v >> 24)
			}
			return out, msg.EOK
		},
		BaseCycles:    sim.Cycle(rows), // one row per cycle with full unroll
		CyclesPerByte: 0,
	})
}
