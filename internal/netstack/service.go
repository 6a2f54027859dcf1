package netstack

import (
	"apiary/internal/accel"
	"apiary/internal/fabric"
	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/sim"
)

// Service is the Apiary network service: an accelerator occupying a tile
// slot (paper §4.1: "The accelerator slot can be used either by an OS
// service such as networking or a user accelerator"). On-tile processes
// talk to it with TNetListen/TNetSend messages; it speaks the reliable
// transport over the board's Ethernet port.
type Service struct {
	node netsim.NodeID
	tr   *Transport

	// flow registry: which tile/ctx receives inbound datagrams per flow.
	flows map[uint16]flowReg

	// outbox holds monitor-bound messages produced outside Tick (the
	// transport deliver callback fires from network events).
	outbox []*msg.Message

	rxDatagrams *sim.Counter
	noListener  *sim.Counter
}

type flowReg struct {
	tile msg.TileID
	ctx  uint8
}

// maxPerTick bounds how many shell messages the service consumes per cycle,
// modelling a pipelined but finite-width datapath.
const maxPerTick = 4

// NewService creates the network service for the given fabric node. The
// frame path runs through port (the board's vendor MAC behind the HAL):
// transmits go port.Transmit -> wire pump -> netsim; receives arrive via
// netsim -> RawRxInject -> port.Receive -> transport.
func NewService(e *sim.Engine, st *sim.Stats, fab *netsim.Fabric,
	node netsim.NodeID, port fabric.EthernetPort, linkCfg netsim.LinkConfig) (*Service, error) {
	if err := port.BringUp(); err != nil {
		return nil, err
	}
	s := &Service{
		node:        node,
		flows:       make(map[uint16]flowReg),
		rxDatagrams: st.Counter("netsvc.rx_datagrams"),
		noListener:  st.Counter("netsvc.no_listener"),
	}
	s.tr = NewTransport(node,
		func(dst netsim.NodeID, payload []byte, tc msg.TraceCtx) error {
			return port.Transmit(fabric.MACFrame{
				Src: uint64(node), Dst: uint64(dst), Payload: payload, Trace: tc,
			})
		},
		s.onDatagram, st)

	if linkCfg.Gbps == 0 {
		linkCfg.Gbps = port.LineRateGbps()
	}
	inject := fabric.RawRxInject(port)
	fab.Attach(node, linkCfg, func(f netsim.Frame) {
		// The MAC RX queue holds the frame until the wire pump drains it,
		// but the fabric recycles the payload buffer as soon as this
		// handler returns (netsim.Handler contract) — so copy here.
		inject(fabric.MACFrame{Src: uint64(f.Src), Dst: uint64(f.Dst),
			Payload: append([]byte(nil), f.Payload...), Trace: f.Trace})
	})

	// Wire pump: drain the MAC TX queue onto the simulated wire, and feed
	// received MAC frames into the transport. Registered as a ticker so it
	// runs even while the service tile is busy; idle whenever the MAC has no
	// frames buffered in either direction (wire traffic in flight arrives
	// through engine events, which bound any fast-forward).
	e.Register(&wirePump{
		drain:   fabric.RawTxDrain(port),
		empty:   fabric.RawQueuesEmpty(port),
		receive: port.Receive,
		toWire: func(mf fabric.MACFrame) {
			_ = fab.Send(netsim.Frame{
				Src: netsim.NodeID(mf.Src), Dst: netsim.NodeID(mf.Dst),
				Payload: mf.Payload, Trace: mf.Trace,
			})
		},
		toTransport: func(mf fabric.MACFrame) {
			s.tr.HandleFrame(netsim.Frame{
				Src: netsim.NodeID(mf.Src), Dst: netsim.NodeID(mf.Dst),
				Payload: mf.Payload, Trace: mf.Trace,
			})
		},
	})
	return s, nil
}

// wirePump shuttles frames between a MAC port and the simulated wire as an
// idle-capable ticker.
type wirePump struct {
	drain       func() (fabric.MACFrame, bool)
	empty       func() bool
	receive     func() (fabric.MACFrame, bool)
	toWire      func(fabric.MACFrame)
	toTransport func(fabric.MACFrame)
}

func (w *wirePump) Idle() bool { return w.empty() }

func (w *wirePump) Tick(now sim.Cycle) {
	for {
		mf, ok := w.drain()
		if !ok {
			break
		}
		w.toWire(mf)
	}
	for {
		mf, ok := w.receive()
		if !ok {
			break
		}
		w.toTransport(mf)
	}
}

// onDatagram queues an inbound datagram for delivery to its flow listener.
// tc is the sideband trace context carried by the frame that completed the
// datagram; it is stamped onto every TNetRecv chunk so the listener sees
// the originating trace.
func (s *Service) onDatagram(remote netsim.NodeID, flow uint16, data []byte, tc msg.TraceCtx) {
	s.rxDatagrams.Inc()
	reg, ok := s.flows[flow]
	if !ok {
		s.noListener.Inc()
		return
	}
	// Large datagrams are chunked into MaxPayload-sized TNetRecv messages;
	// the 8-byte NetRecvInd header rides inside the payload.
	const chunk = msg.MaxPayload - 8
	for off := 0; ; off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		ind := msg.NetRecvInd{
			Remote: msg.NetAddr{Node: uint32(remote), Flow: flow},
			Data:   data[off:end],
		}
		s.outbox = append(s.outbox, &msg.Message{
			Type:    msg.TNetRecv,
			DstTile: reg.tile,
			DstCtx:  reg.ctx,
			Payload: msg.EncodeNetRecvInd(ind),
			Trace:   tc,
		})
		if end == len(data) {
			break
		}
	}
}

// Name implements accel.Accelerator.
func (s *Service) Name() string { return "apiary.netstack" }

// Contexts implements accel.Accelerator.
func (s *Service) Contexts() int { return 1 }

// Reset implements accel.Accelerator.
func (s *Service) Reset() {
	s.flows = make(map[uint16]flowReg)
	s.outbox = nil
}

// Idle implements accel.Idler: the service tile is idle when it has no
// monitor-bound messages queued and its transport is idle (asleep until
// its next retransmission timeout, NextWake). Inbound datagrams materialize
// from wire events, which wake it.
func (s *Service) Idle() bool { return len(s.outbox) == 0 && s.tr.Idle() }

// NextWake implements sim.Waker, forwarding the transport's.
func (s *Service) NextWake() sim.Cycle { return s.tr.NextWake() }

// Quiescent implements accel.Quiescer: an empty outbox, and a transport
// with nothing pending or in flight.
func (s *Service) Quiescent() bool { return len(s.outbox) == 0 && s.tr.drained() }

// Tick implements accel.Accelerator.
func (s *Service) Tick(p accel.Port) {
	for i := 0; i < maxPerTick; i++ {
		m, ok := p.Recv()
		if !ok {
			break
		}
		s.handle(p, m)
	}
	s.tr.Tick(p.Now())
	// Drain the outbox, respecting backpressure.
	for len(s.outbox) > 0 {
		if code := p.Send(s.outbox[0]); code != msg.EOK {
			break
		}
		s.outbox = s.outbox[1:]
	}
}

func (s *Service) handle(p accel.Port, m *msg.Message) {
	switch m.Type {
	case msg.TNetListen:
		req, err := msg.DecodeNetListenReq(m.Payload)
		if err != nil {
			p.Send(m.ErrorReply(msg.EBadMsg))
			return
		}
		s.flows[req.Flow] = flowReg{tile: m.SrcTile, ctx: m.SrcCtx}
		p.Send(m.Reply(msg.TReply, nil))
	case msg.TNetSend:
		req, err := msg.DecodeNetSendReq(m.Payload)
		if err != nil {
			p.Send(m.ErrorReply(msg.EBadMsg))
			return
		}
		if err := s.tr.SendCtx(netsim.NodeID(req.Remote.Node), req.Remote.Flow, req.Data, m.Trace); err != nil {
			p.Send(m.ErrorReply(msg.ETooBig))
			return
		}
		// Oneway semantics: no per-datagram reply; the transport is
		// reliable and flow control is the shell queue.
	case msg.TReply, msg.TError:
		// Stray replies (e.g. from fail-stopped listeners): drop.
	default:
		p.Send(m.ErrorReply(msg.EBadMsg))
	}
}
