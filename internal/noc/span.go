package noc

import (
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// This file defines the flight-recorder hooks of the NoC: a sampled packet
// carries a Span that every router along the way annotates with per-stage
// timing (VC-allocation wait, switch wait, link traversal). Spans are pure
// observation — they never influence routing, arbitration or flow control —
// so a run with sampling enabled is bit-identical to one without it.
// Ejections happen in the commit phase in tile order, which is also where
// completed spans reach the SpanSampler.

// SpanHop records one router traversal of a sampled packet's head flit.
// The stage boundaries mirror the router pipeline: the flit is buffered at
// Arrive, wins an output virtual channel at Grant (Grant-Arrive is the VC
// allocation wait, including the mandatory one-cycle buffering), and crosses
// the switch at Depart (Depart-Grant is the switch allocation wait). Link
// traversal is pipelined into the next hop's Arrive.
type SpanHop struct {
	At     Coord
	In     Port
	Out    Port
	Arrive sim.Cycle
	Grant  sim.Cycle
	Depart sim.Cycle
}

// Span is the lifecycle record of one sampled packet: queued at the source
// NI, per-hop router timing, ejected at the destination. Hops[0].Arrive is
// the injection cycle (head flit entered the source router); the gap from
// Queued to it is the NI queue wait.
type Span struct {
	Src, Dst msg.TileID
	Type     msg.Type
	Seq      uint32
	VC       VCID
	Bytes    int
	Flits    int
	Queued   sim.Cycle
	Eject    sim.Cycle
	Hops     []SpanHop
	// Trace is the distributed-trace context the message carried when it was
	// injected (zero for untraced messages). Pure sideband: it never affects
	// routing, arbitration or timing.
	Trace msg.TraceCtx
}

// Latency reports the end-to-end cycles from Send to delivery.
func (s *Span) Latency() sim.Cycle { return s.Eject - s.Queued }

// InjectWait reports the cycles the packet waited in the source NI before
// its head flit entered the router (0 for a span that never injected).
func (s *Span) InjectWait() sim.Cycle {
	if len(s.Hops) == 0 {
		return 0
	}
	return s.Hops[0].Arrive - s.Queued
}

// SpanSampler is the flight recorder's hook into the NoC. Sample is
// consulted once per Send (possibly inside the tick phase) and must be a
// read-only, deterministic function of its arguments and of state that only
// changes in the commit phase. Complete receives each finished span during
// the commit phase, in tile order of the ejecting NI — it may mutate
// freely.
type SpanSampler interface {
	Sample(src msg.TileID, pktID uint64, m *msg.Message) bool
	Complete(sp *Span)
}

// SetSpanSampler installs (or, with nil, removes) the flight recorder.
// Install before the first cycle; swapping samplers mid-run would make
// Sample's answer depend on wall-clock installation time.
func (n *Network) SetSpanSampler(s SpanSampler) { n.spanner = s }
