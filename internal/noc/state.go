package noc

import (
	"math/bits"

	"apiary/internal/sim"
)

// This file holds the NoC's structure-of-arrays hot state. Every per-cycle
// quantity — FIFO rings, credit counters, wormhole route/grant state,
// occupancy bitsets, round-robin pointers, link counters — lives in a flat
// slice indexed arithmetically by (tile, port, vc), so the tick loop walks
// cache-linear memory instead of chasing per-object pointers. Router and
// NetworkInterface remain as thin views (identity, fault state, injection
// queues) so the cap/fault/trace/obs call sites keep their types.
//
// Index spaces:
//
//	pv            = port*NumVCs + vc                  ∈ [0, pvCount)
//	input VC ivx  = tile*pvCount + pv                 (fifo*, inState, creditTo)
//	output VC ovx = tile*pvCount + pv                 (owner; credits[ovx])
//	credit index  = ovx for router outputs,
//	                injBase + tile*NumVCs + vc        for NI injection credits
//	fifo slot     = ivx*BufDepth + ((head+i) & (BufDepth-1))
//
// Sharing one index shape between input and output VCs keeps the arithmetic
// trivial; the two spaces never collide because credits/owner are only
// meaningful for outputs and fifo/inState only for inputs.
const pvCount = int(numPorts) * NumVCs

// Input-VC wormhole state, packed in one byte: the routed output port in the
// low bits plus the routed/granted flags.
const (
	inPortMask = 0x07
	inRouted   = 0x08
	inGranted  = 0x10
)

func init() {
	// The FIFO rings use (head+i) & (BufDepth-1) addressing.
	if BufDepth&(BufDepth-1) != 0 {
		panic("noc: BufDepth must be a power of two")
	}
	for pv := 0; pv < pvCount; pv++ {
		pvPort[pv] = Port(pv / NumVCs)
		pvVC[pv] = VCID(pv % NumVCs)
	}
	for p := Port(0); p < numPorts; p++ {
		oppPort[p] = p.opposite()
	}
	for k := 0; k < int(numPorts)*(NumVCs-1); k++ {
		kPort[k] = Port(k / (NumVCs - 1))
		kVC[k] = VCID(k%(NumVCs-1)) + 1
	}
}

// Hot-loop lookup tables: pv → port / VC (avoiding div/mod by NumVCs per
// occupied VC per cycle) and port → opposite port.
var (
	pvPort  [pvCount]Port
	pvVC    [pvCount]VCID
	oppPort [numPorts]Port

	// k-space (stage-2 data-VC round-robin index) → input port / VC.
	kPort [int(numPorts) * (NumVCs - 1)]Port
	kVC   [int(numPorts) * (NumVCs - 1)]VCID
)

// nocState is the flat hot state of the whole mesh. All slices are sized at
// construction and never grow, so interior pointers and indices stay valid
// for the network's lifetime.
type nocState struct {
	// fifo holds every input VC buffer as a BufDepth-slot ring in one
	// backing slice; fifoHead/fifoLen are the ring cursors.
	fifo     []Flit
	fifoHead []uint8
	fifoLen  []uint8

	// inState is the per-input-VC wormhole byte (output port + flags).
	inState []uint8

	// headAge[ivx] mirrors the arrival cycle of input ivx's current head
	// flit (meaningless while the ring is empty). The arbitration loops test
	// head age every cycle for every occupied VC; this compact mirror keeps
	// those tests — and the stall-counting failure paths — off the large
	// fifo array, which is then only touched when a flit actually moves.
	headAge []sim.Cycle

	// creditTo[ivx] is the credit index freed when a flit leaves input ivx,
	// sign-encoded so one load decides both the index and the return path:
	// ct >= 0 is an inter-router credit staged for commit; ct == -1 marks an
	// unwired mesh-edge input; ct <= -2 is an NI-injection credit at index
	// -(ct+2), returned directly (same tile).
	creditTo []int32

	// credits counts free downstream slots per output VC (router outputs in
	// the ovx space, then NI injection VCs from injBase up).
	credits []int8

	// owner[ovx] is the input *port* whose packet holds output VC ovx, -1
	// when free. The owning input's VC index equals the output's, so the
	// port alone identifies the owner.
	owner []int8

	// occ[tile] has bit pv set iff input VC (tile,pv) is non-empty — the
	// bitset the tick loop iterates instead of scanning 15 FIFOs.
	occ []uint16

	// granted[tile] has bit pv set iff input VC (tile,pv) currently holds
	// an output VC. Granted inputs need no per-cycle route/allocate work,
	// so stage 1 visits only occ &^ granted; stage 2 finds the granted
	// senders through owner/sendable.
	granted []uint16

	// sendable[tile] has bit pv set iff output VC (tile,pv) is owned and
	// not credit-blocked — the candidate set stage 2 iterates. An owner
	// that fails on credits leaves this set (entering a counting streak,
	// see credBlockStart) and rejoins when the credit returns at commit.
	sendable []uint16

	// vcBlocked[tile] has bit pv set iff input VC (tile,pv) is routed but
	// waiting for its output VC (owner busy). Blocked inputs leave the
	// stage-1 pending scan; releaseVC flushes and re-arms them.
	vcBlocked []uint16

	// credBlockStart[ovx] / vcBlockStart[ivx] are the streak anchors for
	// the deferred stall accounting (noStreak = none): a blocked candidate
	// is counted once inline when it blocks, and the cycles start+1..end
	// are added arithmetically when the streak ends. Flush points — commit
	// credit application, releaseVC, fault injection — are deterministic,
	// so counter totals stay bit-identical with idle-skip on or off and
	// equal to per-cycle counting.
	credBlockStart []sim.Cycle
	vcBlockStart   []sim.Cycle

	// rrPtr is the per-(tile, output port) round-robin pointer over the
	// data-VC candidate space (see tickRouter stage 2).
	rrPtr []uint8

	// linkFlits counts flits forwarded per (tile, output port).
	linkFlits []uint64
}

// noStreak marks an idle streak anchor (sim.Cycle is unsigned, so the
// all-ones pattern stands in for -1; no simulation reaches 2^64-1 cycles).
const noStreak = ^sim.Cycle(0)

// newState sizes every array for `tiles` tiles. credits gains NumVCs extra
// entries per tile for the NI injection credits, addressed from injBase.
func newState(tiles int) nocState {
	s := nocState{
		fifo:           make([]Flit, tiles*pvCount*BufDepth),
		fifoHead:       make([]uint8, tiles*pvCount),
		fifoLen:        make([]uint8, tiles*pvCount),
		inState:        make([]uint8, tiles*pvCount),
		headAge:        make([]sim.Cycle, tiles*pvCount),
		creditTo:       make([]int32, tiles*pvCount),
		credits:        make([]int8, tiles*pvCount+tiles*NumVCs),
		owner:          make([]int8, tiles*pvCount),
		occ:            make([]uint16, tiles),
		granted:        make([]uint16, tiles),
		sendable:       make([]uint16, tiles),
		vcBlocked:      make([]uint16, tiles),
		credBlockStart: make([]sim.Cycle, tiles*pvCount),
		vcBlockStart:   make([]sim.Cycle, tiles*pvCount),
		rrPtr:          make([]uint8, tiles*int(numPorts)),
		linkFlits:      make([]uint64, tiles*int(numPorts)),
	}
	for i := range s.creditTo {
		s.creditTo[i] = -1
	}
	for i := range s.credits {
		s.credits[i] = BufDepth
	}
	for i := range s.owner {
		s.owner[i] = -1
	}
	for i := range s.credBlockStart {
		s.credBlockStart[i] = noStreak
		s.vcBlockStart[i] = noStreak
	}
	return s
}

// injBase is the first NI-injection index in soa.credits.
func (n *Network) injBase() int { return len(n.routers) * pvCount }

// injCredIdx is tile t's injection-credit index for vc.
func (n *Network) injCredIdx(t int32, v VCID) int {
	return n.injBase() + int(t)*NumVCs + int(v)
}

// acceptFlit enqueues a flit arriving on router r's (port, vc). The caller
// must have held a credit; overflow panics because it indicates a
// flow-control bug, which must never be masked.
func (n *Network) acceptFlit(r *Router, p Port, vc VCID, f Flit, now sim.Cycle) {
	s := &n.soa
	pv := int(p)*NumVCs + int(vc)
	ivx := int(r.tile)*pvCount + pv
	l := s.fifoLen[ivx]
	if l >= BufDepth {
		panic("noc: input buffer overflow (credit protocol violated)")
	}
	f.setArrived(now)
	s.fifo[ivx*BufDepth+int((s.fifoHead[ivx]+l)&(BufDepth-1))] = f
	s.fifoLen[ivx] = l + 1
	if l == 0 {
		s.headAge[ivx] = now
		occ := s.occ[r.tile]
		if occ == 0 {
			n.busyTiles++
		}
		s.occ[r.tile] = occ | 1<<uint(pv)
		// A granted input refilling from empty rejoins stage 2's sendable
		// set (it left via trySend's empty-upstream early-out). An empty
		// input is never credit-parked — parking requires a buffered head
		// and stops further drains — so this cannot resurrect a streak.
		if st := s.inState[ivx]; st&inGranted != 0 {
			s.sendable[r.tile] |= 1 << uint(int(st&inPortMask)*NumVCs+int(vc))
		}
	}
	if f.Head() {
		if sp := f.Pkt.span; sp != nil {
			sp.Hops = append(sp.Hops, SpanHop{At: r.Coord, In: p, Arrive: now})
		}
	}
}

// popFlit dequeues the head flit of input VC ivx (pv = ivx's port/vc bits),
// keeping the occupancy bitset and the busy-tile count in sync, and returns
// the freed buffer slot's credit upstream. Injection credits go back
// directly — the NI lives on this tile and ticks after its router.
// Inter-router credits are staged for the commit phase: the uniform
// end-of-cycle return keeps credit timing independent of tick order.
func (n *Network) popFlit(r *Router, pv, ivx int) Flit {
	s := &n.soa
	h := s.fifoHead[ivx]
	slot := ivx*BufDepth + int(h)
	f := s.fifo[slot]
	s.fifo[slot].Pkt = nil
	s.fifoHead[ivx] = (h + 1) & (BufDepth - 1)
	l := s.fifoLen[ivx] - 1
	s.fifoLen[ivx] = l
	if l != 0 {
		s.headAge[ivx] = s.fifo[ivx*BufDepth+int((h+1)&(BufDepth-1))].arrived()
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
	return f
}

// releaseVC ends a packet's hold on input (pv/ivx) / output ovx when its
// tail departs through outP at cycle now: the input forgets its route and
// grant, the output VC frees, and the tile's granted/sendable bitsets
// follow. Inputs parked in a VC-wait streak on this output are flushed
// (their deferred stall cycles counted) and returned to the stage-1 pending
// scan, where the next cycle's grant pass arbitrates them in pv order —
// exactly when and how the per-cycle scan would have.
func (n *Network) releaseVC(r *Router, pv, ivx, ovx int, outP Port, now sim.Cycle) {
	s := &n.soa
	s.inState[ivx] &^= inRouted | inGranted
	s.owner[ovx] = -1
	s.granted[r.tile] &^= 1 << uint(pv)
	vc := pvVC[pv]
	s.sendable[r.tile] &^= 1 << uint(int(outP)*NumVCs+int(vc))
	if wb := s.vcBlocked[r.tile]; wb != 0 {
		base := int(r.tile) * pvCount
		for m := wb; m != 0; m &= m - 1 {
			wpv := bits.TrailingZeros16(m)
			wivx := base + wpv
			if pvVC[wpv] != vc || Port(s.inState[wivx]&inPortMask) != outP {
				continue
			}
			n.stage.stallNoVC += uint64(now - s.vcBlockStart[wivx])
			s.vcBlockStart[wivx] = noStreak
			s.vcBlocked[r.tile] &^= 1 << uint(wpv)
		}
	}
}
