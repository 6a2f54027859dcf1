package apps

import (
	"encoding/binary"

	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// RemoteProxy answers the paper's §6 question "Can we reasonably completely
// avoid an on-node hosting CPU?": functionality that is "either rarely used
// or exceptionally complex" is not built in hardware at all — a proxy tile
// registers the service locally and forwards each request over the
// datacenter network to a CPU *somewhere else*, keeping the FPGA
// independent of its on-node host. On-board clients are oblivious: they
// hold an ordinary endpoint capability for an ordinary service.
//
// Wire format on the network flow: [seq u32][payload]; the remote service
// echoes the seq with its reply.
type RemoteProxy struct {
	// Remote is the CPU service's network address.
	Remote msg.NetAddr
	// Resolve, when set, is consulted per forwarded request instead of
	// Remote — a naming-plane hook: the cluster directory re-binds a fleet
	// service to another board's address on failover, and the proxy picks
	// the new backend up on its next send (including app-level retries of
	// requests the dead board swallowed). It must be a pure read of state
	// that only changes between epochs, so resolution stays deterministic.
	Resolve func() msg.NetAddr
	// Flow is the local flow replies arrive on.
	Flow uint16

	// TraceEvery, when > 0, originates a distributed-trace context on
	// 1-in-TraceEvery forwarded requests (by the proxy's own deterministic
	// request counter — never the simulation RNG, so runs are bit-exact with
	// tracing off or on). The context propagates across the cluster link and
	// back, producing one stitched multi-board span tree per traced request.
	TraceEvery int
	// TraceOrigin is the board ID stamped into originated contexts.
	TraceOrigin uint16
	// TraceSalt makes trace IDs fleet-unique across proxies (the cluster
	// wiring derives it from board and service identity).
	TraceSalt uint64

	// ForwardedC, when set, mirrors Forwarded into a stats counter.
	ForwardedC *sim.Counter
	// Lat, when set, observes request→reply round-trip cycles. It is
	// EXCLUSIVE to this proxy (one writer, the proxy's own tick), so
	// observation order equals the tile's deterministic event order, and
	// readers only look at epoch barriers where the cluster's WaitGroup edge
	// orders the memory — race-free and order-deterministic.
	Lat *sim.Histogram

	listened bool
	nextSeq  uint32
	pend     map[uint32]pendEntry
	out      outQ

	// Forwarded counts requests sent to the remote CPU.
	Forwarded uint64
}

// NewRemoteProxy builds a proxy for the CPU service at remote; replies are
// received on replyFlow.
func NewRemoteProxy(remote msg.NetAddr, replyFlow uint16) *RemoteProxy {
	return &RemoteProxy{Remote: remote, Flow: replyFlow, pend: make(map[uint32]pendEntry)}
}

// traceHash is one splitmix64 mixing step: well-distributed trace/span IDs
// from the proxy's deterministic counters, independent of simulation RNG.
func traceHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// EncodeProxyFrame frames a proxied request/reply datagram.
func EncodeProxyFrame(seq uint32, payload []byte) []byte {
	b := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(b, seq)
	copy(b[4:], payload)
	return b
}

// DecodeProxyFrame parses a proxied datagram.
func DecodeProxyFrame(b []byte) (seq uint32, payload []byte, ok bool) {
	if len(b) < 4 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint32(b), b[4:], true
}

// Name implements accel.Accelerator.
func (r *RemoteProxy) Name() string { return "remoteproxy" }

// Contexts implements accel.Accelerator.
func (r *RemoteProxy) Contexts() int { return 1 }

// Reset implements accel.Accelerator.
func (r *RemoteProxy) Reset() {
	r.listened = false
	r.pend = make(map[uint32]pendEntry)
	r.out = outQ{}
}

// Idle implements accel.Idler: idle once the listen registration stuck and
// nothing is queued to send. Replies from the remote CPU arrive as TNetRecv
// through the shell queue.
func (r *RemoteProxy) Idle() bool { return r.listened && r.out.empty() }

// Tick implements accel.Accelerator.
func (r *RemoteProxy) Tick(p accel.Port) {
	now := p.Now()
	if !r.listened {
		code := p.Send(&msg.Message{
			Type: msg.TNetListen, DstSvc: msg.SvcNet, Seq: 0xFFFFFFFF,
			Payload: msg.EncodeNetListenReq(msg.NetListenReq{Flow: r.Flow}),
		})
		if code == msg.EOK {
			r.listened = true
		}
		return
	}
	for i := 0; i < 4; i++ {
		m, ok := p.Recv()
		if !ok {
			break
		}
		r.handle(m, now)
	}
	r.out.flush(p)
}

func (r *RemoteProxy) handle(m *msg.Message, now sim.Cycle) {
	switch m.Type {
	case msg.TRequest:
		seq := r.nextSeq
		r.nextSeq++
		tc := m.Trace
		if !tc.Valid() && r.TraceEvery > 0 && seq%uint32(r.TraceEvery) == 0 {
			id := traceHash(r.TraceSalt ^ (uint64(seq) + 1))
			if id == 0 {
				id = 1
			}
			tc = msg.TraceCtx{ID: id, Origin: r.TraceOrigin}
		}
		if tc.Valid() {
			tc.Span = traceHash(tc.ID ^ uint64(seq))
		}
		r.pend[seq] = pendEntry{tile: m.SrcTile, ctx: m.SrcCtx, seq: m.Seq, tc: tc, sentAt: now}
		r.Forwarded++
		if r.ForwardedC != nil {
			r.ForwardedC.Inc()
		}
		remote := r.Remote
		if r.Resolve != nil {
			remote = r.Resolve()
		}
		r.out.push(now, &msg.Message{
			Type: msg.TNetSend, DstSvc: msg.SvcNet,
			Payload: msg.EncodeNetSendReq(msg.NetSendReq{
				Remote: remote,
				Data:   EncodeProxyFrame(seq, m.Payload),
			}),
			Trace: tc,
		})
	case msg.TNetRecv:
		ind, err := msg.DecodeNetRecvInd(m.Payload)
		if err != nil {
			return
		}
		seq, payload, ok := DecodeProxyFrame(ind.Data)
		if !ok {
			return
		}
		pe, found := r.pend[seq]
		if !found {
			return
		}
		delete(r.pend, seq)
		if r.Lat != nil {
			r.Lat.Observe(float64(now - pe.sentAt))
		}
		tc := m.Trace
		if !tc.Valid() {
			tc = pe.tc
		}
		r.out.push(now, &msg.Message{
			Type: msg.TReply, DstTile: pe.tile, DstCtx: pe.ctx, Seq: pe.seq,
			Payload: append([]byte(nil), payload...),
			Trace:   tc,
		})
	case msg.TReply, msg.TError:
		// Listen ack or netstack error; nothing to correlate.
	}
}
