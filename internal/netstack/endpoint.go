package netstack

import (
	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/sim"
)

// SoftEndpoint is a software node on the datacenter network speaking the
// same reliable transport as the FPGA network service. Synthetic clients,
// host CPUs and remote services in the experiments are SoftEndpoints.
type SoftEndpoint struct {
	node netsim.NodeID
	tr   *Transport
	onRx DeliverFunc
}

// NewSoftEndpoint attaches a software endpoint to the fabric and registers
// its transport pump with the engine.
func NewSoftEndpoint(e *sim.Engine, st *sim.Stats, fab *netsim.Fabric,
	node netsim.NodeID, cfg netsim.LinkConfig) *SoftEndpoint {
	s := &SoftEndpoint{node: node}
	s.tr = NewTransport(node,
		func(dst netsim.NodeID, payload []byte, tc msg.TraceCtx) error {
			return fab.Send(netsim.Frame{Src: node, Dst: dst, Payload: payload, Trace: tc})
		},
		func(remote netsim.NodeID, flow uint16, data []byte, tc msg.TraceCtx) {
			if s.onRx != nil {
				s.onRx(remote, flow, data, tc)
			}
		}, st)
	fab.Attach(node, cfg, s.tr.HandleFrame)
	e.Register(&transportPump{s.tr})
	return s
}

// transportPump registers a transport as an idle-capable ticker: frames in
// flight on the simulated wire are engine events, so the engine may
// fast-forward whenever the transport itself has nothing queued, sleeping
// until its next retransmission timeout.
type transportPump struct{ tr *Transport }

func (p *transportPump) Tick(now sim.Cycle)  { p.tr.Tick(now) }
func (p *transportPump) Idle() bool          { return p.tr.Idle() }
func (p *transportPump) NextWake() sim.Cycle { return p.tr.NextWake() }

// Node reports the endpoint's fabric node ID.
func (s *SoftEndpoint) Node() netsim.NodeID { return s.node }

// OnDatagram installs the receive callback.
func (s *SoftEndpoint) OnDatagram(f DeliverFunc) { s.onRx = f }

// Send transmits one datagram reliably.
func (s *SoftEndpoint) Send(dst netsim.NodeID, flow uint16, data []byte) error {
	return s.tr.Send(dst, flow, data)
}

// Idle reports whether nothing is pending toward dst.
func (s *SoftEndpoint) Idle(dst netsim.NodeID) bool {
	return s.tr.OutstandingTo(dst) == 0
}
