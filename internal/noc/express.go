package noc

import "apiary/internal/sim"

// This file implements the express-channel bypass: when a packet is provably
// alone on the NoC — nothing buffered anywhere, no other packet queued or in
// flight, no open fault window, no armed corruption — its per-cycle wormhole
// simulation is skipped entirely and its delivery is scheduled at the
// analytically known arrival cycle. The bypass is behaviour-preserving, not
// approximate: every counter, link tally, telemetry view, span stamp and
// delivery cycle equals the per-flit simulation bit for bit (the
// express-differential tests prove it with idle-skip on and off), because
// an uncontended dimension-ordered flight is fully deterministic.
//
// Timing model (t0 = virtual injection cycle of the head flit, F = flits,
// h = hops, R0..Rh the route's routers, Pj the output port of Rj):
//
//   - flit i enters Rj's input ring during cycle t0+i+j and leaves during
//     t0+i+j+1 — at most one express flit per ring at any cycle boundary;
//   - Rj grants the packet's output VC at cycle t0+j+1 (route at head
//     arrival +1, grant and first send the same cycle — exactly the
//     uncontended stage-1/stage-2 schedule);
//   - the tail leaves Rj at t0+F+j, so the packet ejects (commit phase, like
//     every ejection) at arrive = t0+F+h.
//
// Anything that could perturb the flight — a new Send, a fault injection, a
// mid-flight invariant violation — *materializes* the bypass: the virtual
// flight is converted back into exact per-flit state (ring contents, grants,
// credits, round-robin pointers, span hops, NI queue remainder) at the last
// committed cycle, and simulation resumes per-flit from there.
type expressState struct {
	active bool
	ni     *NetworkInterface
	vc     VCID
	pkt    *Packet
	t0     sim.Cycle // virtual injection cycle of the head flit
	F      int       // packet flit count
	h      int       // router-to-router hops (0 when src == dst)
	arrive sim.Cycle // t0 + F + h: commit-phase ejection cycle

	// settled is the last cycle whose analytic counter/link effects have
	// been applied; Commit advances it per executed cycle so windowed
	// telemetry sees the same per-cycle deltas a per-flit run produces, and
	// the arrival (or a materialization) settles any idle-skipped remainder.
	settled sim.Cycle

	// tiles[0..h] and ports[0..h-1] are the route; reusable buffers.
	tiles []int32
	ports []Port

	// req/reqVC stage an activation request from NI.tick (tick phase; at
	// most one NI can pass the eligibility check per cycle, see
	// expressEligible) for Commit to confirm on the main goroutine.
	req   *NetworkInterface
	reqVC VCID
}

// ringRange reports the closed range of hop indices whose input rings hold a
// virtual flit at the end of cycle c (empty when hi < lo): flit i sits in
// ring j = c-t0-i, so the occupied span is [d-F+1, d] ∩ [0, h], d = c-t0.
func (x *expressState) ringRange(c sim.Cycle) (lo, hi int) {
	d := int(c - x.t0)
	lo = d - x.F + 1
	if lo < 0 {
		lo = 0
	}
	hi = d
	if hi > x.h {
		hi = x.h
	}
	return lo, hi
}

// expressCutoff reports the cycle the virtual flight has semantically
// completed: the simulated clock's current cycle when the engine is between
// cycles or in the commit phase (commit for Now() has run — committedThrough
// says so), and Now()-1 from inside an event handler (events fire before the
// cycle's ticks). committedThrough itself can lag arbitrarily behind Now()
// across idle-skipped stretches, so it only disambiguates the phase — the
// cutoff always comes from Now().
func (n *Network) expressCutoff() sim.Cycle {
	now := n.engine.Now()
	if n.committedThrough == now {
		return now
	}
	return now - 1
}

// expressEligible is NI.tick's bypass pre-check for a fresh head-of-queue
// packet. It runs in the tick phase, so every field it reads is stable
// (written only between cycles or merged at commit):
//
//   - n.inflight == 1 and ni.queued == 1: the candidate is the only packet
//     the last commit knew about, and it is ours. A packet Sent earlier in
//     *this* tick phase shows up in n.stage.inflight; one Sent later is
//     caught by Commit's confirmation.
//   - no open fault window anywhere (faultMaxAll) and no armed corruption
//     (armedFlips): a bypassed flight must be fault-free.
//
// At most one NI per cycle can pass — any second candidate either raises
// n.inflight above 1 or finds express.req already set.
func (n *Network) expressEligible(ni *NetworkInterface, now sim.Cycle) bool {
	if ni.queued != 1 || n.inflight != 1 || n.stage.inflight != 0 {
		return false
	}
	x := &n.express
	return !n.noExpress && !x.active && x.req == nil &&
		now >= n.faultMaxAll && n.armedFlips == 0
}

// expressCommit is the bypass's per-cycle commit hook, called by
// Network.Commit after the credit and counter passes (so the global
// activity picture is settled) and before the ejection pass (so an express
// arrival's staged ejection delivers this cycle, exactly like a per-flit
// tail ejection staged during the tick phase).
func (n *Network) expressCommit(now sim.Cycle) {
	x := &n.express
	if x.req != nil {
		ni, v := x.req, x.reqVC
		x.req = nil
		// Confirm the network really is empty but for the candidate. The
		// eligibility pre-check ran on possibly stale tick-phase state;
		// anything that slipped in — a later Send, a flit somewhere —
		// fails the confirmation and the head injection happens here
		// instead, bit-identical to the NI.tick injection it displaced.
		if n.busyTiles == 0 && n.queuedNIs == 1 && n.inflight == 1 {
			n.activateExpress(ni, v, now)
		} else {
			n.expressFallback(ni, v, now)
		}
	}
	if !x.active {
		return
	}
	if now < x.arrive {
		n.settleExpress(now)
		// Mid-flight invariant: still alone. A tick-phase Send this cycle
		// (new queued packet, possibly an injected flit at another tile)
		// breaks it; convert the flight back to per-flit state as of the
		// end of this cycle and let the next tick arbitrate for real.
		if n.inflight != 1 || n.queuedNIs != 0 || n.busyTiles != 0 {
			n.materializeExpress(now)
		}
		return
	}
	// Arrival cycle (the pooled wake-up event forced the engine to execute
	// it). Settle any idle-skipped cycles, stamp the final per-flit effects
	// — round-robin pointers, span hops — and stage the ejection for the
	// pass that follows.
	n.settleExpress(x.arrive)
	n.expressFinalState()
	if sp := x.pkt.span; sp != nil {
		n.expressSpanHops(sp, x.arrive)
	}
	n.stage.ejections = append(n.stage.ejections, ejection{&n.nis[x.tiles[x.h]], x.pkt})
	x.active = false
	x.pkt = nil
	x.ni = nil
}

// activateExpress converts the confirmed candidate into a virtual flight:
// dequeue it from the NI (the mirror of NI.tick's dequeue), walk the route
// once, and schedule the arrival wake-up. From here until arrival (or
// materialization) the packet exists only in expressState.
func (n *Network) activateExpress(ni *NetworkInterface, v VCID, now sim.Cycle) {
	x := &n.express
	q := ni.injQ[v]
	pkt := q[0]
	x.tiles = x.tiles[:0]
	x.ports = x.ports[:0]
	here := pkt.Src
	for here != pkt.Dst {
		p := n.route(here, pkt.Dst)
		nc := neighbour(here, p)
		if p == Local || !n.dims.Contains(nc) {
			// Same contract violation trySend panics on.
			panic("noc: route off mesh edge at " + here.String())
		}
		x.tiles = append(x.tiles, int32(n.dims.TileID(here)))
		x.ports = append(x.ports, p)
		here = nc
	}
	x.tiles = append(x.tiles, int32(n.dims.TileID(here)))
	x.h = len(x.ports)
	x.F = pkt.NumFlits
	x.t0 = now
	x.arrive = now + sim.Cycle(x.F+x.h)
	x.settled = now
	x.ni = ni
	x.vc = v
	x.pkt = pkt
	x.active = true
	copy(q, q[1:])
	q[len(q)-1] = nil
	ni.injQ[v] = q[:len(q)-1]
	ni.queued--
	if ni.queued == 0 {
		n.queuedNIs--
	}
	n.cExpressHits.Inc()
	n.engine.ScheduleNoHandle(x.arrive, n.expressWakeFn)
}

// expressFallback performs the head injection the staging NI skipped, in the
// commit phase but with exactly the state transitions NI.tick would have
// made — so a failed confirmation is indistinguishable from never staging.
func (n *Network) expressFallback(ni *NetworkInterface, v VCID, now sim.Cycle) {
	q := ni.injQ[v]
	pkt := q[0]
	n.soa.credits[ni.injCred+int(v)]--
	n.acceptFlit(ni.rt, Local, v, makeFlit(pkt, 0, pkt.NumFlits == 1), now)
	if pkt.NumFlits == 1 {
		copy(q, q[1:])
		q[len(q)-1] = nil
		ni.injQ[v] = q[:len(q)-1]
		ni.queued--
		if ni.queued == 0 {
			n.queuedNIs--
		}
	} else {
		ni.flitsLeft[v] = pkt.NumFlits - 1
	}
}

// settleExpress applies the analytic counter and link-tally effects of
// cycles (settled, c]. During cycle t0+d (d ≥ 1) the moving flits are those
// with 1 ≤ d-i ≤ h+1: flit i leaves ring j = d-1-i through Pj (or the local
// ejection port at Rh), each crediting flits_routed and the link counter the
// per-flit send would have; the cycle the tail moves out of Rj credits
// pkts_routed, just like trySend's tail path.
func (n *Network) settleExpress(c sim.Cycle) {
	x := &n.express
	s := &n.soa
	var flits, pkts uint64
	for cyc := x.settled + 1; cyc <= c; cyc++ {
		d := int(cyc - x.t0)
		lo := d - x.h - 1
		if lo < 0 {
			lo = 0
		}
		hi := d - 1
		if hi > x.F-1 {
			hi = x.F - 1
		}
		if hi < lo {
			continue
		}
		for i := lo; i <= hi; i++ {
			j := d - 1 - i
			if j == x.h {
				s.linkFlits[int(x.tiles[j])*int(numPorts)+int(Local)]++
			} else {
				s.linkFlits[int(x.tiles[j])*int(numPorts)+int(x.ports[j])]++
			}
		}
		flits += uint64(hi - lo + 1)
		if x.F-1 >= lo && x.F-1 <= hi {
			pkts++
		}
	}
	if flits != 0 {
		n.cFlitsRouted.Add(flits)
	}
	if pkts != 0 {
		n.cPktsRouted.Add(pkts)
	}
	x.settled = c
}

// expressFinalState stamps the residual per-router state a completed flight
// leaves behind: each router on the path forwarded the whole packet through
// one (input port, VC) pair, so its output port's round-robin pointer ends
// one past that candidate (data VCs only — VC0 sends don't move it).
func (n *Network) expressFinalState() {
	x := &n.express
	if x.vc == VCMgmt {
		return
	}
	const nk = int(numPorts) * (NumVCs - 1)
	for j := 0; j <= x.h; j++ {
		in, out := x.hopPorts(j)
		k := int(in)*(NumVCs-1) + int(x.vc)
		if k == nk {
			k = 0
		}
		n.soa.rrPtr[int(x.tiles[j])*int(numPorts)+int(out)] = uint8(k)
	}
}

// hopPorts reports router j's input and output port on the route.
func (x *expressState) hopPorts(j int) (in, out Port) {
	in, out = Local, Local
	if j > 0 {
		in = oppPort[x.ports[j-1]]
	}
	if j < x.h {
		out = x.ports[j]
	}
	return in, out
}

// expressSpanHops rebuilds the sampled packet's hop records exactly as the
// per-flit stamps would have: head arrival at Rj at t0+j, grant and
// switch-traversal at t0+j+1. Hops whose head has not departed by cycle c
// (materialization) keep zero Grant/Depart/Out, matching an un-granted hop.
func (n *Network) expressSpanHops(sp *Span, c sim.Cycle) {
	x := &n.express
	d := int(c - x.t0)
	for j := 0; j <= x.h && j <= d; j++ {
		in, out := x.hopPorts(j)
		hop := SpanHop{
			At:     n.routers[x.tiles[j]].Coord,
			In:     in,
			Arrive: x.t0 + sim.Cycle(j),
		}
		if j <= d-1 {
			hop.Grant = x.t0 + sim.Cycle(j) + 1
			hop.Depart = hop.Grant
			hop.Out = out
		}
		sp.Hops = append(sp.Hops, hop)
	}
}

// materializeExpress converts the virtual flight back into exact per-flit
// simulation state as of the end of cycle c (the last committed cycle), then
// deactivates the bypass. Triggers: a Send arriving outside the tick phase
// (event handlers, delivery callbacks), a fault-injection hook, or Commit's
// mid-flight invariant check after a tick-phase Send. Reconstruction places
// at most one flit per input ring — the timing model guarantees no two
// express flits share a ring at a cycle boundary — and restores grants,
// credits, round-robin pointers, span hops and the NI's un-injected
// remainder, so the next tick arbitrates exactly the state a per-flit run
// would hold.
func (n *Network) materializeExpress(c sim.Cycle) {
	x := &n.express
	s := &n.soa
	n.settleExpress(c)
	d := int(c - x.t0)
	injected := x.F
	if d+1 < injected {
		injected = d + 1
	}
	for i := 0; i < injected; i++ {
		j := d - i
		if j > x.h {
			continue // already ejected
		}
		tile := int(x.tiles[j])
		in, out := x.hopPorts(j)
		pv := int(in)*NumVCs + int(x.vc)
		ivx := tile*pvCount + pv
		f := makeFlit(x.pkt, i, i == x.F-1)
		f.setArrived(c)
		s.fifo[ivx*BufDepth] = f
		s.fifoHead[ivx] = 0
		s.fifoLen[ivx] = 1
		s.headAge[ivx] = c
		occ := s.occ[tile]
		if occ == 0 {
			n.busyTiles++
		}
		s.occ[tile] = occ | 1<<uint(pv)
		if i >= 1 {
			// The head has departed this router: its route and grant
			// persist until the tail follows.
			s.inState[ivx] = uint8(out) | inRouted | inGranted
			s.owner[tile*pvCount+int(out)*NumVCs+int(x.vc)] = int8(in)
			s.granted[tile] |= 1 << uint(pv)
			s.sendable[tile] |= 1 << uint(int(out)*NumVCs+int(x.vc))
		}
		// The buffered flit holds one downstream slot of the link that
		// delivered it (the injection credit for the source ring).
		if j == 0 {
			s.credits[x.ni.injCred+int(x.vc)]--
		} else {
			up := int(x.tiles[j-1])*pvCount + int(x.ports[j-1])*NumVCs + int(x.vc)
			s.credits[up]--
		}
	}
	// Round-robin pointers moved on every router whose head has departed.
	if x.vc != VCMgmt {
		const nk = int(numPorts) * (NumVCs - 1)
		for j := 0; j <= x.h && j <= d-1; j++ {
			in, out := x.hopPorts(j)
			k := int(in)*(NumVCs-1) + int(x.vc)
			if k == nk {
				k = 0
			}
			s.rrPtr[int(x.tiles[j])*int(numPorts)+int(out)] = uint8(k)
		}
	}
	if sp := x.pkt.span; sp != nil {
		n.expressSpanHops(sp, c)
	}
	if injected < x.F {
		// Un-injected remainder: put the packet back at the front of its
		// VC queue (a Send racing the materialization has already appended
		// behind it, preserving FIFO order) with the per-flit cursor.
		ni := x.ni
		q := append(ni.injQ[x.vc], nil)
		copy(q[1:], q)
		q[0] = x.pkt
		ni.injQ[x.vc] = q
		ni.flitsLeft[x.vc] = x.F - injected
		ni.queued++
		if ni.queued == 1 {
			n.queuedNIs++
		}
	}
	n.cExpressMat.Inc()
	x.active = false
	x.pkt = nil
	x.ni = nil
}
