package noc

import "apiary/internal/sim"

// nocStage holds the effects a tick phase produces but must not expose until
// the cycle ends. Network.Commit applies them, giving the mesh flop
// semantics: a credit freed during cycle t is usable from cycle t+1 on, and
// a packet ejected during cycle t is delivered after every router and NI has
// ticked — whatever order the tickers ran in.
type nocStage struct {
	// credits are inter-router credit returns staged by popFlit as indices
	// into Network.soa.credits: each entry is incremented once at commit.
	credits []int32

	// ejections are packets whose tail left through the Local port,
	// delivered (NI callback + latency observation) at commit in tile
	// order, so a delivery callback that sends a reply sees the settled
	// network and the shared latency histogram's float sum is accumulated
	// in a fixed order.
	ejections []ejection

	// Counter deltas, merged into the shared sim.Counters at commit so the
	// hot paths do plain integer adds. (Ejection-side counters need no
	// deltas: eject only ever runs in the commit phase.)
	flitsRouted uint64
	pktsRouted  uint64
	stallNoCred uint64
	stallNoVC   uint64
	stallFault  uint64
	corrupted   uint64
	sent        uint64
	inflight    int

	// flipsFired counts armed corruptions consumed this cycle; the commit
	// merge decrements Network.armedFlips (the express bypass's pending-
	// corruption summary) by it, so the summary changes only between
	// cycles.
	flipsFired uint64
}

type ejection struct {
	ni  *NetworkInterface
	pkt *Packet
}

// Commit applies the cycle's staged effects in a fixed order: credits, then
// counter-delta merges, then express confirmation, then ejections.
// Ejections go last so a delivery callback that immediately sends a reply
// (monitor request/response) observes the fully settled network state.
func (n *Network) Commit(now sim.Cycle) {
	st := &n.stage
	for _, ci := range st.credits {
		n.soa.credits[ci]++
		// A returning credit ends any parked stall streak on this output
		// VC: settle the deferred cycles (this one included — the tick
		// already ran and the candidate could not send) and put the
		// candidate back in stage 2's sendable set.
		if cs := n.soa.credBlockStart[ci]; cs != noStreak {
			n.cStallNoCred.Add(uint64(now - cs))
			n.soa.credBlockStart[ci] = noStreak
			n.soa.sendable[int(ci)/pvCount] |= 1 << uint(int(ci)%pvCount)
		}
	}
	st.credits = st.credits[:0]
	if st.flitsRouted != 0 {
		n.cFlitsRouted.Add(st.flitsRouted)
		st.flitsRouted = 0
	}
	if st.pktsRouted != 0 {
		n.cPktsRouted.Add(st.pktsRouted)
		st.pktsRouted = 0
	}
	if st.stallNoCred != 0 {
		n.cStallNoCred.Add(st.stallNoCred)
		st.stallNoCred = 0
	}
	if st.stallNoVC != 0 {
		n.cStallNoVC.Add(st.stallNoVC)
		st.stallNoVC = 0
	}
	if st.stallFault != 0 {
		n.cStallFault.Add(st.stallFault)
		st.stallFault = 0
	}
	if st.corrupted != 0 {
		n.cCorrupted.Add(st.corrupted)
		st.corrupted = 0
	}
	if st.flipsFired != 0 {
		n.armedFlips -= int(st.flipsFired)
		st.flipsFired = 0
	}
	if st.sent != 0 {
		n.cSent.Add(st.sent)
		st.sent = 0
	}
	n.inflight += st.inflight
	st.inflight = 0
	// Express bypass: confirm a staged activation, settle a flight's
	// per-cycle analytic effects, or deliver its arrival — after the
	// activity picture above is final, before the ejection pass so an
	// express arrival ejects this cycle like any per-flit tail.
	n.expressCommit(now)
	for i := range st.ejections {
		ej := st.ejections[i]
		st.ejections[i] = ejection{}
		ej.ni.eject(ej.pkt, now)
		n.pool.putPacket(ej.pkt)
	}
	st.ejections = st.ejections[:0]
	n.committedThrough = now
}
