package noc

import (
	"math/bits"

	"apiary/internal/sim"
)

// BufDepth is the per-(port,VC) input buffer depth in flits. Credit-based
// flow control means a sender never emits a flit the downstream buffer
// cannot hold.
const BufDepth = 4

// Router is one mesh router — a thin view over the network's
// structure-of-arrays state (state.go). It carries only identity (tile,
// coordinate, neighbour indices) and the cold fault-injection fields;
// every per-cycle quantity lives in Network.soa. Routers are ticked by
// Network.Tick, not registered individually.
type Router struct {
	Coord Coord
	tile  int32
	net   *Network

	// neighbours[p] is the tile reached through port p; -1 at mesh edges.
	neighbours [numPorts]int32

	// Fault-injection state (noc/fault.go): stallUntil/stuckUntil suppress
	// forwarding through an output port / output VC, flipArm corrupts the
	// next departing message. Written between cycles by the chaos engine,
	// read (and cleared) only by this router's own tick. faultMax and
	// flipAny summarize the arrays so the fault-free hot path pays one
	// compare per send instead of rescanning them.
	stallUntil [numPorts]sim.Cycle
	stuckUntil [numPorts][NumVCs]sim.Cycle
	flipArm    [numPorts]bool
	faultMax   sim.Cycle
	flipAny    bool
}

// Idle reports whether ticking the router would be a no-op: with no buffered
// flits there is nothing to route, grant or forward.
func (r *Router) Idle() bool { return r.net.soa.occ[r.tile] == 0 }

// bufLen reports the buffered flits of input (p, vc) — tests and
// introspection only.
func (r *Router) bufLen(p Port, vc VCID) int {
	return int(r.net.soa.fifoLen[int(r.tile)*pvCount+int(p)*NumVCs+int(vc)])
}

// tickRouter advances router r one cycle. The caller (Network.Tick) has
// already established occ != 0, so only occupied VCs — single bitset
// iteration — are visited.
//
// The two stages replicate the original object-per-router arbitration
// decision-for-decision (route computation + VC allocation, then switch
// allocation with strict VC0 priority and round-robin data VCs), so every
// counter, span stamp and round-robin pointer movement is bit-identical to
// the pre-SoA implementation.
func (n *Network) tickRouter(r *Router, now sim.Cycle) {
	s := &n.soa
	base := int(r.tile) * pvCount

	// Stage 1: route computation + output VC allocation. Only pending inputs
	// (occupied but not yet granted) need per-cycle work here: a granted
	// input's claim persists until its tail departs, so granted inputs are
	// skipped entirely and rediscovered in stage 2 through owner/ownedPorts.
	// Bitset iteration visits (port, vc) in ascending pv order, matching the
	// original port-major scan.
	for m := s.occ[r.tile] &^ s.granted[r.tile] &^ s.vcBlocked[r.tile]; m != 0; m &= m - 1 {
		pv := bits.TrailingZeros16(m)
		ivx := base + pv
		if s.headAge[ivx] >= now {
			continue // arrived this cycle; visible next cycle
		}
		// A pending (occupied, ungranted) input always has a packet head at
		// its front: the previous packet's grant is only released when its
		// tail departs, at which point the next head is exposed.
		st := s.inState[ivx]
		if st&inRouted == 0 {
			f := &s.fifo[ivx*BufDepth+int(s.fifoHead[ivx])]
			st = uint8(n.route(r.Coord, f.Pkt.Dst)) | inRouted
			s.inState[ivx] = st
		}
		outP := int(st & inPortMask)
		ovx := base + outP*NumVCs + int(pvVC[pv])
		if s.owner[ovx] < 0 {
			s.owner[ovx] = int8(pvPort[pv])
			s.inState[ivx] = st | inGranted
			s.granted[r.tile] |= 1 << uint(pv)
			s.sendable[r.tile] |= 1 << uint(outP*NumVCs+int(pvVC[pv]))
			f := &s.fifo[ivx*BufDepth+int(s.fifoHead[ivx])]
			if sp := f.Pkt.span; sp != nil {
				sp.Hops[len(sp.Hops)-1].Grant = now
			}
		} else if s.owner[ovx] != int8(pvPort[pv]) {
			// Owner busy: count this cycle inline, then park the input in a
			// VC-wait streak — releaseVC settles the remaining cycles when
			// the output frees.
			n.stage.stallNoVC++
			s.vcBlocked[r.tile] |= 1 << uint(pv)
			s.vcBlockStart[ivx] = now
		}
	}

	// Stage 2: switch allocation — one flit per output port per cycle, over
	// the sendable set (owned output VCs not parked in a credit streak).
	// VC0 (management) has strict priority; the data-VC candidates share
	// round-robin over the k-space (k = port*(NumVCs-1) + vc - 1), which
	// with at most two candidates degenerates to one rotated comparison. A
	// candidate whose input is currently empty or whose head arrived this
	// cycle fails trySend with no side effects — exactly the inputs the
	// original full scan never offered — so counters and pointer movement
	// stay bit-identical.
	//
	// Streak excision: when a win pre-empts attempts the original scan
	// would have skipped that cycle (data candidates after a VC0 win, the
	// rotated-later data candidate after a data win), any parked streak on
	// those candidates advances its anchor by one, uncounting this cycle.
	const nk = int(numPorts) * (NumVCs - 1)
	for sm := s.sendable[r.tile]; sm != 0; {
		pvLow := bits.TrailingZeros16(sm)
		outP := pvPort[pvLow]
		obase := int(outP) * NumVCs
		group := sm & (7 << uint(obase))
		sm &^= group
		if group&(1<<uint(obase)) != 0 {
			if n.trySend(r, Port(s.owner[base+obase]), VCMgmt, outP, now) {
				if s.credBlockStart[base+obase+1] != noStreak {
					s.credBlockStart[base+obase+1]++
				}
				if s.credBlockStart[base+obase+2] != noStreak {
					s.credBlockStart[base+obase+2]++
				}
				continue
			}
		}
		b1 := group&(1<<uint(obase+1)) != 0
		b2 := group&(1<<uint(obase+2)) != 0
		if !b1 && !b2 {
			continue
		}
		start := int(s.rrPtr[int(r.tile)*int(numPorts)+int(outP)])
		if b1 && b2 {
			// Both data candidates live: the rotated-first is attempted
			// first; a failed attempt was a real (counted) attempt in the
			// original scan too, so no excision either way.
			k1 := int(s.owner[base+obase+1]) * (NumVCs - 1)
			k2 := int(s.owner[base+obase+2])*(NumVCs-1) + 1
			d1, d2 := k1-start, k2-start
			if d1 < 0 {
				d1 += nk
			}
			if d2 < 0 {
				d2 += nk
			}
			if d2 < d1 {
				k1, k2 = k2, k1
			}
			if !n.trySendRR(r, k1, outP, now) {
				n.trySendRR(r, k2, outP, now)
			}
			continue
		}
		// One data candidate live; the other data VC may be parked in a
		// streak. On a win, excise this cycle from the parked streak iff
		// the parked candidate rotates after the winner — the original
		// scan would have stopped before attempting it.
		wVC, oVC := 1, 2
		if b2 {
			wVC, oVC = 2, 1
		}
		kw := int(s.owner[base+obase+wVC])*(NumVCs-1) + wVC - 1
		if n.trySendRR(r, kw, outP, now) {
			ovO := base + obase + oVC
			if s.credBlockStart[ovO] != noStreak {
				ko := int(s.owner[ovO])*(NumVCs-1) + oVC - 1
				dw, do := kw-start, ko-start
				if dw < 0 {
					dw += nk
				}
				if do < 0 {
					do += nk
				}
				if do > dw {
					s.credBlockStart[ovO]++
				}
			}
		}
	}
}

// trySendRR is trySend addressed by round-robin index k, advancing the
// output port's pointer past k on success — the same pointer movement the
// original rotated scan performed.
func (n *Network) trySendRR(r *Router, k int, outP Port, now sim.Cycle) bool {
	if !n.trySend(r, kPort[k], kVC[k], outP, now) {
		return false
	}
	const nk = int(numPorts) * (NumVCs - 1)
	k++
	if k == nk {
		k = 0
	}
	n.soa.rrPtr[int(r.tile)*int(numPorts)+int(outP)] = uint8(k)
	return true
}

// trySend forwards the head flit of input (p, vc) through outP. The caller
// (stage 2) derives (p, vc) from the output VC's owner, so ownership is
// guaranteed; the remaining eligibility checks — buffered flit present, head
// older than this cycle — fail silently, and only then do the stage-2-time
// checks (fault suppression, downstream credit) count their stalls. Reports
// whether a flit moved.
func (n *Network) trySend(r *Router, p Port, vc VCID, outP Port, now sim.Cycle) bool {
	s := &n.soa
	pv := int(p)*NumVCs + int(vc)
	ivx := int(r.tile)*pvCount + pv
	if s.fifoLen[ivx] == 0 {
		// Owner's remaining flits are still upstream: nothing to attempt
		// until one arrives, so leave the sendable set — the arrival paths
		// (acceptFlit, the direct-delivery enqueue below) re-arm the bit.
		// No counter fires here, so the deferral is decision-neutral.
		s.sendable[r.tile] &^= 1 << uint(int(outP)*NumVCs+int(vc))
		return false
	}
	if s.headAge[ivx] >= now {
		return false // arrived this cycle; sendable next cycle
	}
	if now < r.faultMax && (now < r.stallUntil[outP] || now < r.stuckUntil[outP][vc]) {
		// Injected link stall / stuck VC: the flit stays buffered and no
		// credit moves, so the fault is time-bounded and drains cleanly.
		n.stage.stallFault++
		return false
	}
	ovx := int(r.tile)*pvCount + int(outP)*NumVCs + int(vc)

	if outP == Local {
		head := &s.fifo[ivx*BufDepth+int(s.fifoHead[ivx])]
		// Ejection: the NI consumes at most one flit per VC per cycle but
		// has no buffer limit (reassembly happens immediately). The packet's
		// delivery — the NI callback, the shared latency histogram,
		// in-flight accounting — is staged for the commit phase, where
		// Network.Commit replays ejections in tile order.
		recordDepart(head, outP, now)
		r.maybeFlip(head, outP)
		f := n.popFlit(r, pv, ivx)
		n.stage.flitsRouted++
		s.linkFlits[int(r.tile)*int(numPorts)+int(Local)]++
		if f.Tail() {
			n.releaseVC(r, pv, ivx, ovx, outP, now)
			n.stage.pktsRouted++
			// Wormhole ordering makes the tail the packet's last flit; the
			// packet stays alive in the staging queue until its commit-phase
			// eject.
			n.stage.ejections = append(n.stage.ejections, ejection{&n.nis[r.tile], f.Pkt})
		}
		return true
	}

	next := r.neighbours[outP]
	if next < 0 {
		// Routing off the mesh edge indicates a routing-function bug.
		panic("noc: route off mesh edge at " + r.Coord.String())
	}
	if s.credits[ovx] == 0 {
		// Count this cycle inline, then park the candidate in a credit
		// streak — the commit-phase credit return settles the remaining
		// cycles. While any fault window is open on this router, stay in
		// per-cycle counting so fault-suppressed cycles keep counting
		// stall_fault, not stall_no_credit.
		n.stage.stallNoCred++
		if now >= r.faultMax {
			s.sendable[r.tile] &^= 1 << uint(int(outP)*NumVCs+int(vc))
			s.credBlockStart[ovx] = now
		}
		return false
	}
	ring := s.fifo[ivx*BufDepth:][:BufDepth]
	head := &ring[s.fifoHead[ivx]&(BufDepth-1)]
	recordDepart(head, outP, now)
	r.maybeFlip(head, outP)
	tail := head.Tail()
	// Hand the flit to the neighbour. A freshly accepted flit only becomes
	// routable the following cycle (arrivedAt guard) and at most one flit
	// crosses a link per cycle, so accepting it immediately is exactly as
	// if it were latched at the end of the cycle. The flit moves
	// ring-to-ring in place — one copy, reusing the head pointer already
	// loaded — with popFlit's and acceptFlit's effects in the same order:
	// source dequeue with credit return and occupancy upkeep, then
	// destination enqueue with arrival stamp and span hop.
	nh := (s.fifoHead[ivx] + 1) & (BufDepth - 1)
	s.fifoHead[ivx] = nh
	l := s.fifoLen[ivx] - 1
	s.fifoLen[ivx] = l
	if l != 0 {
		s.headAge[ivx] = ring[nh&(BufDepth-1)].arrived()
	}
	if ct := s.creditTo[ivx]; ct >= 0 {
		n.stage.credits = append(n.stage.credits, ct)
	} else if ct != -1 {
		s.credits[-(ct+2)]++
	}
	if l == 0 {
		occ := s.occ[r.tile] &^ (1 << uint(pv))
		s.occ[r.tile] = occ
		if occ == 0 {
			n.busyTiles--
		}
	}
	nr := &n.routers[next]
	dpv := int(oppPort[outP])*NumVCs + int(vc)
	divx := int(next)*pvCount + dpv
	dl := s.fifoLen[divx]
	if dl >= BufDepth {
		panic("noc: input buffer overflow (credit protocol violated)")
	}
	dring := s.fifo[divx*BufDepth:][:BufDepth]
	dst := &dring[(s.fifoHead[divx]+dl)&(BufDepth-1)]
	*dst = *head
	dst.setArrived(now)
	head.Pkt = nil
	s.fifoLen[divx] = dl + 1
	if dl == 0 {
		s.headAge[divx] = now
		occ := s.occ[next]
		if occ == 0 {
			n.busyTiles++
		}
		s.occ[next] = occ | 1<<uint(dpv)
		// Mirror acceptFlit: a granted input refilling from empty
		// rejoins the neighbour's sendable set.
		if dstSt := s.inState[divx]; dstSt&inGranted != 0 {
			s.sendable[next] |= 1 << uint(int(dstSt&inPortMask)*NumVCs+int(vc))
		}
	}
	if dst.Head() {
		if sp := dst.Pkt.span; sp != nil {
			sp.Hops = append(sp.Hops, SpanHop{At: nr.Coord, In: oppPort[outP], Arrive: now})
		}
	}
	s.credits[ovx]--
	n.stage.flitsRouted++
	s.linkFlits[int(r.tile)*int(numPorts)+int(outP)]++
	if tail {
		n.releaseVC(r, pv, ivx, ovx, outP, now)
		n.stage.pktsRouted++
	}
	return true
}

// recordDepart stamps the current hop's switch-traversal cycle and output
// port on a sampled packet's span when its head flit leaves the router.
func recordDepart(f *Flit, outP Port, now sim.Cycle) {
	if !f.Head() {
		return
	}
	if sp := f.Pkt.span; sp != nil {
		h := &sp.Hops[len(sp.Hops)-1]
		h.Depart = now
		h.Out = outP
	}
}

// maybeFlip applies an armed one-shot corruption when a head flit departs
// through outP (noc/fault.go). Arming persists across tail flits so a flip
// armed mid-packet corrupts the *next* message, never a packet fragment.
func (r *Router) maybeFlip(f *Flit, outP Port) {
	if !r.flipAny || !r.flipArm[outP] || !f.Head() {
		return
	}
	r.flipArm[outP] = false
	r.refreshFaultSummary()
	corrupt(f.Pkt.Msg)
	r.net.stage.corrupted++
	r.net.stage.flipsFired++
}

// refreshFaultSummary recomputes the faultMax/flipAny fast-path summaries
// from the fault arrays. Called from the (cold) fault hooks and flip
// consumption, never from the fault-free hot path.
func (r *Router) refreshFaultSummary() {
	var max sim.Cycle
	any := false
	for p := Port(0); p < numPorts; p++ {
		if r.stallUntil[p] > max {
			max = r.stallUntil[p]
		}
		for v := 0; v < NumVCs; v++ {
			if r.stuckUntil[p][v] > max {
				max = r.stuckUntil[p][v]
			}
		}
		any = any || r.flipArm[p]
	}
	r.faultMax = max
	r.flipAny = any
}
