package noc

import (
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// NumPorts is the router port count (Local + the four mesh directions),
// exported for fault-plan validation.
const NumPorts = numPorts

// This file is the NoC's fault-injection surface (internal/fault drives it).
// All three hooks write router-private fields and must be called between
// cycles (engine events); the fields are read — and the one-shot flip arm
// cleared — only by the owning router's own tick.

// StallLink suppresses all flit forwarding through tile t's output port p
// until the given cycle. Credits are not consumed while stalled, so a
// bounded stall drains cleanly and Quiescent still terminates.
func (n *Network) StallLink(t msg.TileID, p Port, until sim.Cycle) {
	n.checkInjectPhase()
	n.faultOpens(until)
	r := &n.routers[int(t)]
	if until > r.stallUntil[p] {
		r.stallUntil[p] = until
	}
	if until > r.faultMax {
		r.faultMax = until
	}
	n.flushCreditStreaks(r)
}

// StickVC suppresses forwarding on one output virtual channel of tile t's
// port p until the given cycle — a stuck VC allocator. Other VCs of the same
// link keep moving.
func (n *Network) StickVC(t msg.TileID, p Port, v VCID, until sim.Cycle) {
	n.checkInjectPhase()
	n.faultOpens(until)
	r := &n.routers[int(t)]
	if until > r.stuckUntil[p][v] {
		r.stuckUntil[p][v] = until
	}
	if until > r.faultMax {
		r.faultMax = until
	}
	n.flushCreditStreaks(r)
}

// flushCreditStreaks settles router r's parked credit streaks when a fault
// window opens: streak cycles through the previous cycle are counted (the
// hooks run in the event phase, before this cycle's tick) and the candidates
// return to per-cycle attempts, where fault-suppressed cycles count
// stall_fault exactly as they always did. trySend refuses to park while
// now < faultMax, so streaks and fault windows never overlap.
func (n *Network) flushCreditStreaks(r *Router) {
	s := &n.soa
	base := int(r.tile) * pvCount
	upto := n.engine.Now() - 1
	for pv := 0; pv < pvCount; pv++ {
		if cs := s.credBlockStart[base+pv]; cs != noStreak {
			if upto > cs {
				n.cStallNoCred.Add(uint64(upto - cs))
			}
			s.credBlockStart[base+pv] = noStreak
			s.sendable[r.tile] |= 1 << uint(pv)
		}
	}
}

// CorruptNext arms a one-shot corruption of the next message whose head flit
// leaves tile t through port p: one payload byte is flipped (or the sequence
// number when the payload is empty), modelling an on-the-wire bit error that
// slips past the link CRC.
func (n *Network) CorruptNext(t msg.TileID, p Port) {
	n.checkInjectPhase()
	n.faultOpens(0)
	r := &n.routers[int(t)]
	if !r.flipArm[p] {
		// armedFlips counts distinct armed (router, port) one-shots so the
		// express bypass knows when any corruption is pending; re-arming an
		// already-armed port is idempotent there too. The counter is
		// decremented at commit when maybeFlip fires (staged).
		n.armedFlips++
	}
	r.flipArm[p] = true
	r.flipAny = true
}

// faultOpens is the express bypass's fault hook: a flight in progress must
// not see the new fault (it was admitted on a fault-free network), so it is
// materialized back to per-flit state first; faultMaxAll then keeps new
// flights from starting while any stall/stick window is open.
func (n *Network) faultOpens(until sim.Cycle) {
	if n.express.active {
		n.materializeExpress(n.expressCutoff())
	}
	if until > n.faultMaxAll {
		n.faultMaxAll = until
	}
}

func (n *Network) checkInjectPhase() {
	if n.engine.InTickPhase() {
		panic("noc: fault injection during tick phase (drive it from engine events)")
	}
}

// corrupt flips one bit of the packet's message. The message object is owned
// by the in-flight packet until ejection, so mutating it here (from the
// owning router's tick) is race-free.
func corrupt(m *msg.Message) {
	if len(m.Payload) > 0 {
		m.Payload[0] ^= 0x80
		return
	}
	m.Seq ^= 1
}
