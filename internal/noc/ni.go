package noc

import (
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// DeliverFunc receives a fully reassembled message at the destination tile,
// along with the packet's end-to-end NoC latency in cycles.
type DeliverFunc func(m *msg.Message, latency sim.Cycle)

// NetworkInterface (NI) is a tile's port onto the NoC. The monitor sits
// between the accelerator and the NI. Injection segments a message into
// flits and feeds the router's Local input port under the same credit
// protocol routers use between themselves; ejection reassembles and invokes
// the delivery callback. Like Router it is a thin view: its injection
// credits live in the network's structure-of-arrays state, and it is ticked
// by Network.Tick.
type NetworkInterface struct {
	tile    msg.TileID
	coord   Coord
	net     *Network
	rt      *Router
	deliver DeliverFunc

	// injection queues, one per VC, unbounded at the NI boundary; the
	// monitor applies backpressure/rate limits before messages reach here.
	injQ [NumVCs][]*Packet
	// queued caches the total length of injQ so Idle and QueuedPackets are
	// O(1).
	queued int
	// flitsLeft tracks how many flits of the current head packet still need
	// injecting, per VC.
	flitsLeft [NumVCs]int
	// injCred is the base index of this tile's injection credits in
	// Network.soa.credits (one per VC, mirroring the router Local input
	// buffer occupancy).
	injCred int

	nextPktID uint64

	sent      *sim.Counter
	delivered *sim.Counter
	latency   *sim.Histogram
}

// Tile reports the NI's tile ID.
func (ni *NetworkInterface) Tile() msg.TileID { return ni.tile }

// SetDeliver installs the ejection callback. The monitor installs itself
// here during tile construction.
func (ni *NetworkInterface) SetDeliver(f DeliverFunc) { ni.deliver = f }

// QueuedPackets reports the number of packets waiting to inject (all VCs).
func (ni *NetworkInterface) QueuedPackets() int { return ni.queued }

// Idle reports whether ticking the NI would be a no-op: with no queued
// packets there is nothing to inject. (Flits already handed to the router are
// the router's activity, not the NI's.)
func (ni *NetworkInterface) Idle() bool { return ni.queued == 0 }

// Send queues m for injection. The destination tile must already be resolved
// (m.DstTile); the VC is chosen from the message type. Send never blocks;
// flits trickle out at one per VC per cycle as credits allow.
func (ni *NetworkInterface) Send(m *msg.Message) error {
	if len(m.Payload) > msg.MaxPayload {
		return msg.ETooBig.Error()
	}
	dst := ni.net.dims.Coord(m.DstTile)
	if !ni.net.dims.Contains(dst) || m.DstTile == msg.NoTile {
		return msg.ENoRoute.Error()
	}
	if ni.net.express.active && !ni.net.engine.InTickPhase() {
		// A new packet ends the bypassed packet's provably-alone flight:
		// rebuild the exact per-flit state before this Send becomes
		// visible. (Tick-phase Sends are handled by Commit's invariant
		// check instead — the flight still covers the current cycle.)
		ni.net.materializeExpress(ni.net.expressCutoff())
	}
	vc := ClassVC(m.Type)
	ni.nextPktID++
	pkt := ni.net.pool.getPacket()
	*pkt = Packet{
		ID:       ni.nextPktID | uint64(ni.tile)<<48,
		Src:      ni.coord,
		Dst:      dst,
		VC:       vc,
		Msg:      m,
		NumFlits: FlitsFor(m.WireSize()),
		Injected: ni.net.engine.Now(),
	}
	if sp := ni.net.spanner; sp != nil && sp.Sample(ni.tile, ni.nextPktID, m) {
		pkt.span = &Span{
			Src: ni.tile, Dst: m.DstTile, Type: m.Type, Seq: m.Seq, VC: vc,
			Bytes: len(m.Payload), Flits: pkt.NumFlits, Queued: pkt.Injected,
			Trace: m.Trace,
		}
	}
	ni.injQ[vc] = append(ni.injQ[vc], pkt)
	ni.queued++
	if ni.queued == 1 {
		ni.net.queuedNIs++
	}
	// The in-flight count and the sent counter are staged when inside a
	// tick phase and mutated directly otherwise (setup code, event handlers,
	// commit-phase delivery callbacks), so the express bypass's eligibility
	// check sees the previous commit's in-flight count.
	if ni.net.engine.InTickPhase() {
		ni.net.stage.inflight++
		ni.net.stage.sent++
	} else {
		ni.net.inflight++
		ni.sent.Inc()
	}
	return nil
}

// tick injects up to one flit per VC per cycle, credits permitting.
// Network.Tick only calls it with packets queued.
func (ni *NetworkInterface) tick(now sim.Cycle) {
	credits := ni.net.soa.credits
	skipVC := VCID(-1)
	if x := &ni.net.express; x.active && x.ni == ni &&
		now <= x.t0+sim.Cycle(x.F-1) {
		// The bypassed packet's remaining flits are still (virtually)
		// injecting on its VC: leave that queue untouched so a packet Sent
		// behind it cannot jump ahead. Materialization prepends the
		// remainder, preserving per-VC FIFO order.
		skipVC = x.vc
	}
	for v := VCID(0); v < NumVCs; v++ {
		if v == skipVC {
			continue
		}
		q := ni.injQ[v]
		if len(q) == 0 {
			continue
		}
		if credits[ni.injCred+int(v)] == 0 {
			continue
		}
		pkt := q[0]
		if ni.flitsLeft[v] == 0 {
			if ni.net.expressEligible(ni, now) {
				// Stage a bypass request instead of injecting: Commit
				// confirms the network is otherwise empty and either
				// activates the express flight or performs exactly this
				// head injection as the fallback.
				ni.net.express.req = ni
				ni.net.express.reqVC = v
				return
			}
			ni.flitsLeft[v] = pkt.NumFlits
		}
		idx := pkt.NumFlits - ni.flitsLeft[v]
		credits[ni.injCred+int(v)]--
		ni.net.acceptFlit(ni.rt, Local, v,
			makeFlit(pkt, idx, ni.flitsLeft[v] == 1), now)
		ni.flitsLeft[v]--
		if ni.flitsLeft[v] == 0 {
			copy(q, q[1:])
			q[len(q)-1] = nil
			ni.injQ[v] = q[:len(q)-1]
			ni.queued--
			if ni.queued == 0 {
				ni.net.queuedNIs--
			}
		}
	}
}

// eject delivers a packet whose tail flit left through the Local port. It
// runs only in the commit phase (Network.Commit drains the staged ejections
// in tile order), so it may freely touch network-global state — the
// in-flight count, the shared latency histogram — and invoke the delivery
// callback, which may itself Send a reply.
func (ni *NetworkInterface) eject(pkt *Packet, now sim.Cycle) {
	ni.net.inflight--
	ni.delivered.Inc()
	lat := now - pkt.Injected
	ni.latency.Observe(float64(lat))
	if sp := pkt.span; sp != nil {
		// Complete the span before the delivery callback runs: a service
		// that replies synchronously then observes the request already
		// registered, which is what makes reply correlation catch it.
		pkt.span = nil
		sp.Eject = now
		if s := ni.net.spanner; s != nil {
			s.Complete(sp)
		}
	}
	if ni.deliver != nil {
		ni.deliver(pkt.Msg, lat)
	}
}
