package noc

import (
	"fmt"
	"testing"

	"apiary/internal/msg"
	"apiary/internal/sim"
)

// sampleAll records every packet's span, formatted hop by hop, in completion
// order — the strictest observable the express bypass must reproduce.
type sampleAll struct {
	spans []string
}

func (s *sampleAll) Sample(msg.TileID, uint64, *msg.Message) bool { return true }

func (s *sampleAll) Complete(sp *Span) {
	line := fmt.Sprintf("%d->%d type=%d seq=%d vc=%d flits=%d q=%d eject=%d",
		sp.Src, sp.Dst, sp.Type, sp.Seq, sp.VC, sp.Flits, sp.Queued, sp.Eject)
	for _, h := range sp.Hops {
		line += fmt.Sprintf(" [%s in=%s out=%s a=%d g=%d d=%d]",
			h.At, h.In, h.Out, h.Arrive, h.Grant, h.Depart)
	}
	s.spans = append(s.spans, line)
}

// runSparse drives the express bypass's target workload on an 8x8 mesh:
// mostly-idle traffic where at most one packet is in flight, plus the edge
// cases that must degrade to per-flit simulation — same-cycle double sends
// (activation confirm fails), sends landing mid-flight (materialization),
// fault injections mid-flight, armed corruptions, self-sends and VC0
// management traffic. Returns the full observable snapshot plus every
// sampled span.
func runSparse(t *testing.T, seed uint64, bands int, idleSkip, noExpress bool) (nocSnapshot, []string) {
	t.Helper()
	e := sim.NewEngine(seed)
	e.SetIdleSkip(idleSkip)
	st := sim.NewStats()
	n := newBandedNetwork(e, st, Config{Dims: Dims{8, 8}, NoExpress: noExpress}, bands)
	rec := &sampleAll{}
	n.SetSpanSampler(rec)

	snap := nocSnapshot{
		Counters:  make(map[string]uint64),
		HistStats: make(map[string][6]float64),
	}
	tiles := n.Dims().Tiles()
	// Ping-pong: request deliveries bounce a reply until the chain budget
	// runs out, exercising commit-phase Sends on an empty network — each
	// leg is a fresh express candidate.
	pong := 0
	for i := 0; i < tiles; i++ {
		tile := msg.TileID(i)
		n.NI(tile).SetDeliver(func(m *msg.Message, lat sim.Cycle) {
			snap.Delivery = append(snap.Delivery,
				fmt.Sprintf("%d<-%d t=%d seq=%d lat=%d now=%d",
					tile, m.SrcTile, m.Type, m.Seq, lat, e.Now()))
			if m.Type == msg.TRequest && pong < 12 {
				pong++
				r := &msg.Message{Type: msg.TReply, SrcTile: tile, DstTile: m.SrcTile,
					Seq: m.Seq + 1000, Payload: make([]byte, 40)}
				if err := n.NI(tile).Send(r); err != nil {
					t.Errorf("pong send: %v", err)
				}
			}
		})
	}

	send := func(src, dst int, ty msg.Type, seq uint32, payload int) {
		m := &msg.Message{Type: ty, SrcTile: msg.TileID(src), DstTile: msg.TileID(dst),
			Seq: seq, Payload: make([]byte, payload)}
		if err := n.NI(msg.TileID(src)).Send(m); err != nil {
			t.Errorf("send seq=%d: %v", seq, err)
		}
	}

	// Widely spaced singles: pure express flights (long idle gaps let the
	// fast-forward path engage when idleSkip is on). Mix of hop counts,
	// flit counts, VCs, and a self-send.
	cases := []struct {
		src, dst int
		ty       msg.Type
		payload  int
	}{
		{0, 63, msg.TRequest, 200}, // corner to corner, many flits
		{63, 0, msg.TReply, 0},     // single-ish flit back
		{5, 5, msg.TRequest, 33},   // self-send: zero hops
		{12, 50, msg.TCtlPing, 0},  // VC0 management
		{7, 56, msg.TMemRead, 120}, // anti-diagonal
		{31, 32, msg.TError, 10},   // adjacent tiles
	}
	cyc := sim.Cycle(1)
	var seq uint32
	for _, c := range cases {
		c, s := c, seq
		e.Schedule(cyc, func(sim.Cycle) { send(c.src, c.dst, c.ty, s, c.payload) })
		seq++
		cyc += 80
	}

	// Same-cycle pair: the second Send raises inflight before the tick, so
	// neither packet may bypass — activation is never attempted, or the
	// commit confirmation falls back.
	{
		s := seq
		e.Schedule(cyc, func(sim.Cycle) {
			send(2, 61, msg.TRequest, s, 64)
			send(61, 2, msg.TRequest, s+1, 64)
		})
		seq += 2
		cyc += 80
	}

	// Mid-flight Send from the event phase: the first packet's bypass (if
	// granted) must materialize back to per-flit state, bit-exact.
	{
		s := seq
		e.Schedule(cyc, func(sim.Cycle) { send(0, 62, msg.TRequest, s, 180) })
		e.Schedule(cyc+6, func(sim.Cycle) { send(9, 54, msg.TRequest, s+1, 180) })
		seq += 2
		cyc += 120
	}

	// Mid-flight Send landing on the *source* NI, same VC: the queue-order
	// guard must hold the newcomer behind the virtual remainder.
	{
		s := seq
		e.Schedule(cyc, func(sim.Cycle) { send(3, 60, msg.TRequest, s, 220) })
		e.Schedule(cyc+4, func(sim.Cycle) { send(3, 10, msg.TRequest, s+1, 0) })
		seq += 2
		cyc += 120
	}

	// Mid-flight fault: a stall window opening on the route materializes
	// the flight, then delays it like any per-flit packet.
	{
		s := seq
		e.Schedule(cyc, func(sim.Cycle) { send(0, 7, msg.TRequest, s, 200) })
		at := cyc
		e.Schedule(cyc+5, func(now sim.Cycle) {
			n.StallLink(3, East, at+60)
		})
		seq++
		cyc += 160
	}

	// Armed corruption: no bypass while armed; the flip fires on the
	// per-flit flight, after which bypassing resumes.
	{
		s := seq
		e.Schedule(cyc, func(sim.Cycle) { n.CorruptNext(16, East) })
		e.Schedule(cyc+2, func(sim.Cycle) { send(16, 23, msg.TRequest, s, 50) })
		e.Schedule(cyc+100, func(sim.Cycle) { send(16, 23, msg.TRequest, s+1, 50) })
		seq += 2
		cyc += 240
	}

	e.Run(cyc)
	if !e.RunUntil(n.Quiescent, 100000) {
		t.Fatalf("mesh did not quiesce (bands=%d skip=%v noExpress=%v)", bands, idleSkip, noExpress)
	}
	if e.Now() < 2*cyc {
		e.Run(2*cyc - e.Now())
	}

	snap.Now = e.Now()
	for _, c := range st.Counters() {
		snap.Counters[c.Name] = c.Value()
	}
	for _, h := range st.Histograms() {
		snap.HistStats[h.Name] = [6]float64{
			float64(h.Count()), h.Mean(), h.Min(), h.Max(), h.Quantile(0.5), h.Quantile(0.99),
		}
	}
	snap.Links = n.LinkUtilization()
	snap.CreditViolation = n.CreditInvariantViolation()
	return snap, rec.spans
}

// stripExpressMeta removes the bypass's own bookkeeping counters before a
// differential comparison: they are the only observables allowed to differ
// between express-on and express-off runs.
func stripExpressMeta(s nocSnapshot) nocSnapshot {
	delete(s.Counters, "noc.express_hits")
	delete(s.Counters, "noc.express_materialized")
	return s
}

// TestExpressDifferential is the bypass's proof obligation: over a workload
// covering pure bypassed flights, failed activations, mid-flight Sends
// (event-phase and same-NI), mid-flight faults and armed corruptions, an
// express-on run is bit-exact with express-off — every counter, latency
// distribution, delivery record, per-link flit count and per-hop span stamp
// — with the mesh ticked as 1, 2, 4 or 8 row bands and idle-skip off and on.
func TestExpressDifferential(t *testing.T) {
	for _, seed := range []uint64{3, 41} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base, baseSpans := runSparse(t, seed, 1, false, true)
			if base.CreditViolation != "" {
				t.Fatalf("credit invariant (baseline): %s", base.CreditViolation)
			}
			if len(base.Delivery) == 0 {
				t.Fatal("baseline delivered nothing")
			}
			if base.Counters["noc.express_hits"] != 0 {
				t.Fatal("NoExpress run recorded express hits")
			}
			if base.Counters["noc.flits_corrupted"] == 0 {
				t.Fatal("workload never fired the armed corruption")
			}
			if base.Counters["noc.stall_fault"] == 0 {
				t.Fatal("workload never hit the injected stall")
			}
			baseStripped := stripExpressMeta(base)

			for _, bands := range []int{1, 2, 4, 8} {
				for _, skip := range []bool{false, true} {
					bands, skip := bands, skip
					name := fmt.Sprintf("shards=%d/mode=%d/skip=%v", bands, serialMode, skip)
					t.Run(name, func(t *testing.T) {
						got, gotSpans := runSparse(t, seed, bands, skip, false)
						if got.Counters["noc.express_hits"] == 0 {
							t.Error("express never activated; the differential proves nothing")
						}
						if got.Counters["noc.express_materialized"] == 0 {
							t.Error("no flight materialized; mid-flight cases not exercised")
						}
						diffSnapshots(t, baseStripped, stripExpressMeta(got))
						if len(gotSpans) != len(baseSpans) {
							t.Fatalf("spans: got %d, want %d", len(gotSpans), len(baseSpans))
						}
						for i := range baseSpans {
							if gotSpans[i] != baseSpans[i] {
								t.Errorf("span[%d]:\n got %s\nwant %s", i, gotSpans[i], baseSpans[i])
							}
						}
					})
				}
			}
		})
	}
}

// TestExpressChaosDisablesBypass pins the admission rule: while any fault
// window is open (or a corruption armed) no flight may bypass, and once the
// window closes bypassing resumes.
func TestExpressChaosDisablesBypass(t *testing.T) {
	e := sim.NewEngine(9)
	st := sim.NewStats()
	n := NewNetwork(e, st, Config{Dims: Dims{4, 4}})
	hits := st.Counter("noc.express_hits")
	n.NI(0).SetDeliver(func(*msg.Message, sim.Cycle) {})
	n.NI(15).SetDeliver(func(*msg.Message, sim.Cycle) {})

	// A stall window on an unrelated link still blocks bypassing: the
	// admission check is global, not per-route.
	n.StallLink(5, North, 500)
	e.Schedule(10, func(sim.Cycle) {
		n.NI(0).Send(&msg.Message{Type: msg.TRequest, SrcTile: 0, DstTile: 15})
	})
	e.Run(600)
	if !n.Quiescent() {
		t.Fatal("not quiescent")
	}
	if got := hits.Value(); got != 0 {
		t.Fatalf("express activated %d times inside an open fault window", got)
	}

	// Window closed (now=600 >= 500): the same flight bypasses.
	e.Schedule(e.Now()+10, func(sim.Cycle) {
		n.NI(0).Send(&msg.Message{Type: msg.TRequest, SrcTile: 0, DstTile: 15})
	})
	e.Run(200)
	if got := hits.Value(); got != 1 {
		t.Fatalf("express hits after window closed = %d, want 1", got)
	}
}

// TestExpressSteadyStateAllocs is the hot-loop allocation guard for the
// bypass: a ping-pong chain of bypassed flights — activation, pooled
// arrival wake-up, settlement, ejection, reply Send — runs allocation-free
// once warm.
func TestExpressSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine(5)
	st := sim.NewStats()
	n := NewNetwork(e, st, Config{Dims: Dims{4, 4}})
	hits := st.Counter("noc.express_hits")

	// One message object bounces forever between tiles 0 and 15: the
	// delivery callback swaps the endpoints and re-sends it.
	ball := &msg.Message{Type: msg.TRequest, SrcTile: 0, DstTile: 15, Payload: make([]byte, 48)}
	bounce := func(m *msg.Message, _ sim.Cycle) {
		m.SrcTile, m.DstTile = m.DstTile, m.SrcTile
		if err := n.NI(m.SrcTile).Send(m); err != nil {
			t.Errorf("bounce: %v", err)
		}
	}
	n.NI(0).SetDeliver(bounce)
	n.NI(15).SetDeliver(bounce)
	e.Schedule(1, func(sim.Cycle) { n.NI(0).Send(ball) })
	e.Run(2000) // warm up pools (packets, events, histogram buckets)
	before := hits.Value()
	if before == 0 {
		t.Fatal("ping-pong chain never bypassed")
	}
	avg := testing.AllocsPerRun(10, func() { e.Run(2000) })
	if avg != 0 {
		t.Fatalf("express steady state allocates %.1f allocs per 2000 cycles, want 0", avg)
	}
	if hits.Value() == before {
		t.Fatal("measured window contained no bypassed flights")
	}
}
