package apps

import (
	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// NetBridge is the front-end accelerator of a direct-attached service: it
// listens on a network flow via the Apiary network service, turns each
// inbound datagram into work, and sends the result back over the network —
// no CPU anywhere on the path (paper §1).
//
// Work is either processed locally (Process set) or forwarded as a request
// to another on-board service (Target set), composing with the rest of the
// application.
type NetBridge struct {
	// Flow is the network flow to listen on.
	Flow uint16
	// Target, when nonzero, receives a TRequest per datagram.
	Target msg.ServiceID
	// Process, used when Target is zero, computes the reply locally.
	Process ProcessFunc
	// BaseCycles models local pipeline occupancy for Process.
	BaseCycles sim.Cycle

	listened  bool
	listenSeq uint32
	nextSeq   uint32
	pend      map[uint32]bridgePend
	out       outQ
	busyTil   sim.Cycle

	// Served counts datagrams answered.
	Served uint64
	// ServedC, when set, mirrors Served into a stats counter (atomic, so
	// tick-phase safe); the fleet wiring points it at the per-service
	// goodput counter the aggregator rolls up.
	ServedC *sim.Counter
}

// bridgePend remembers a forwarded datagram's reply address and trace
// context while the on-board request is in flight.
type bridgePend struct {
	addr msg.NetAddr
	tc   msg.TraceCtx
}

// NewNetBridge builds a bridge listening on flow. Configure Target or
// Process before loading.
func NewNetBridge(flow uint16) *NetBridge {
	return &NetBridge{Flow: flow, pend: make(map[uint32]bridgePend)}
}

// Name implements accel.Accelerator.
func (b *NetBridge) Name() string { return "netbridge" }

// Contexts implements accel.Accelerator.
func (b *NetBridge) Contexts() int { return 1 }

// Reset implements accel.Accelerator.
func (b *NetBridge) Reset() {
	b.listened = false
	b.pend = make(map[uint32]bridgePend)
	b.out = outQ{}
	b.busyTil = 0
}

// Idle implements accel.Idler: until the listen registration succeeds the
// bridge retries it every tick, so it is only idle once listened with an
// empty send queue.
func (b *NetBridge) Idle() bool { return b.listened && b.out.empty() }

// Tick implements accel.Accelerator.
func (b *NetBridge) Tick(p accel.Port) {
	now := p.Now()
	if !b.listened {
		b.listenSeq = b.nextSeq
		b.nextSeq++
		code := p.Send(&msg.Message{
			Type: msg.TNetListen, DstSvc: msg.SvcNet, Seq: b.listenSeq,
			Payload: msg.EncodeNetListenReq(msg.NetListenReq{Flow: b.Flow}),
		})
		if code == msg.EOK {
			b.listened = true
		}
		return
	}
	for i := 0; i < 4; i++ {
		m, ok := p.Recv()
		if !ok {
			break
		}
		b.handle(m, now)
	}
	b.out.flush(p)
}

func (b *NetBridge) handle(m *msg.Message, now sim.Cycle) {
	switch m.Type {
	case msg.TNetRecv:
		ind, err := msg.DecodeNetRecvInd(m.Payload)
		if err != nil {
			return
		}
		if b.Target != 0 {
			seq := b.nextSeq
			b.nextSeq++
			b.pend[seq] = bridgePend{addr: ind.Remote, tc: m.Trace}
			b.out.push(now, &msg.Message{
				Type: msg.TRequest, DstSvc: b.Target, Seq: seq, Payload: ind.Data,
				Trace: m.Trace,
			})
			return
		}
		if b.Process == nil {
			return
		}
		reply, code := b.Process(ind.Data)
		if code != msg.EOK {
			reply = []byte{0xFF, byte(code)}
		}
		at := now
		if b.BaseCycles > 0 {
			if b.busyTil < now {
				b.busyTil = now
			}
			b.busyTil += b.BaseCycles
			at = b.busyTil
		}
		b.serve()
		b.out.push(at, b.netReply(ind.Remote, reply, m.Trace))
	case msg.TReply:
		// The listen ack carries listenSeq, which is never in pend, so it
		// falls through harmlessly.
		if pe, ok := b.pend[m.Seq]; ok {
			delete(b.pend, m.Seq)
			b.serve()
			tc := m.Trace
			if !tc.Valid() {
				tc = pe.tc
			}
			b.out.push(now, b.netReply(pe.addr, m.Payload, tc))
		}
	case msg.TError:
		if pe, ok := b.pend[m.Seq]; ok {
			delete(b.pend, m.Seq)
			b.out.push(now, b.netReply(pe.addr, []byte{0xFF, byte(m.Err)}, pe.tc))
		}
	}
}

func (b *NetBridge) serve() {
	b.Served++
	if b.ServedC != nil {
		b.ServedC.Inc()
	}
}

func (b *NetBridge) netReply(addr msg.NetAddr, data []byte, tc msg.TraceCtx) *msg.Message {
	return &msg.Message{
		Type: msg.TNetSend, DstSvc: msg.SvcNet,
		Payload: msg.EncodeNetSendReq(msg.NetSendReq{Remote: addr, Data: data}),
		Trace:   tc,
	}
}
