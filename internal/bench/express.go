package bench

import (
	"time"

	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// E18 measures the express-channel bypass (noc/express.go) along the axis
// that matters for it: offered load. The bypass only engages when a packet
// is provably alone on the NoC, so its hit rate must fall from ~100% on
// widely spaced traffic to ~0% as flights start overlapping — and at full
// saturation it must engage never and cost nothing. Every workload is also
// re-run with the bypass disabled (Config.NoExpress) and the simulated
// outcome — deliveries, flit counts, latency distribution — must be
// bit-identical: the bypass is an optimization of the simulator, not a
// change to the simulated network.

// expressRun drives an 8x8 mesh with one random unicast every gap cycles
// and reports the simulated counters.
type expressRunOut struct {
	sent, delivered, hits, flits uint64
	p99                          float64
	wall                         time.Duration
}

func expressRun(gap int, horizon sim.Cycle, noExpress bool) expressRunOut {
	e := sim.NewEngine(18)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{
		Dims: noc.Dims{W: 8, H: 8}, NoExpress: noExpress,
	})
	tiles := n.Dims().Tiles()
	for i := 0; i < tiles; i++ {
		n.NI(msg.TileID(i)).SetDeliver(func(*msg.Message, sim.Cycle) {})
	}
	rng := sim.NewRNG(18)
	var seq uint32
	for at := sim.Cycle(1); at < horizon; at += sim.Cycle(gap) {
		e.Schedule(at, func(now sim.Cycle) {
			src := msg.TileID(rng.Intn(tiles))
			dst := msg.TileID(rng.Intn(tiles))
			if dst == src {
				dst = msg.TileID((int(dst) + 1) % tiles)
			}
			_ = n.NI(src).Send(&msg.Message{
				Type: msg.TRequest, SrcTile: src, DstTile: dst,
				Seq: seq, Payload: make([]byte, 64),
			})
			seq++
		})
	}
	start := time.Now()
	e.Run(horizon)
	e.RunUntil(n.Quiescent, 100000)
	return expressRunOut{
		sent:      st.Counter("noc.msgs_sent").Value(),
		delivered: st.Counter("noc.msgs_delivered").Value(),
		hits:      st.Counter("noc.express_hits").Value(),
		flits:     st.Counter("noc.flits_routed").Value(),
		p99:       st.Histogram("noc.msg_latency_cycles").P99(),
		wall:      time.Since(start),
	}
}

// expressSaturated runs the saturated-mesh workload the microbenchmarks
// track (BenchmarkMeshSaturated16/32) for a fixed cycle count and
// reports its deterministic counters, bringing the saturated hot path under
// the -compare trajectory gate. ns/cycle is host wall-clock and excluded
// from comparison.
func expressSaturated(w, h int, cycles int) expressRunOut {
	e := sim.NewEngine(7)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: w, H: h}})
	tiles := w * h
	free := make([]*msg.Message, 0, tiles*8)
	for t := 0; t < tiles; t++ {
		n.NI(msg.TileID(t)).SetDeliver(func(m *msg.Message, _ sim.Cycle) {
			free = append(free, m)
		})
	}
	rng := sim.NewRNG(7)
	payload := make([]byte, 64)
	topUp := func() {
		for t := 0; t < tiles; t++ {
			for n.NI(msg.TileID(t)).QueuedPackets() < 4 {
				dst := msg.TileID(rng.Intn(tiles))
				if dst == msg.TileID(t) {
					dst = msg.TileID((int(dst) + 1) % tiles)
				}
				var m *msg.Message
				if k := len(free); k > 0 {
					m, free = free[k-1], free[:k-1]
					*m = msg.Message{}
				} else {
					m = &msg.Message{}
				}
				m.Type, m.SrcTile, m.DstTile, m.Payload = msg.TRequest, msg.TileID(t), dst, payload
				_ = n.NI(msg.TileID(t)).Send(m)
			}
		}
	}
	start := time.Now()
	for i := 0; i < cycles; i++ {
		if i%16 == 0 {
			topUp()
		}
		e.Step()
	}
	return expressRunOut{
		sent:      st.Counter("noc.msgs_sent").Value(),
		delivered: st.Counter("noc.msgs_delivered").Value(),
		hits:      st.Counter("noc.express_hits").Value(),
		flits:     st.Counter("noc.flits_routed").Value(),
		p99:       st.Histogram("noc.msg_latency_cycles").P99(),
		wall:      time.Since(start),
	}
}

// E18Express is the express-bypass hit-rate sweep plus the saturated rows.
func E18Express() Result {
	r := Result{
		ID: "E18", Title: "Express-channel bypass: hit rate vs offered load",
		Header: []string{"workload", "sent", "delivered", "express_hits", "hit%", "p99_lat", "ns/cycle"},
	}
	const horizon = sim.Cycle(8192)
	identical := true
	for _, gap := range []int{2, 8, 32, 256} {
		on := expressRun(gap, horizon, false)
		off := expressRun(gap, horizon, true)
		if on.sent != off.sent || on.delivered != off.delivered ||
			on.flits != off.flits || on.p99 != off.p99 {
			identical = false
		}
		hitPct := 0.0
		if on.sent > 0 {
			hitPct = 100 * float64(on.hits) / float64(on.sent)
		}
		r.AddRow("sparse 8x8 gap="+d(gap), u(on.sent), u(on.delivered),
			u(on.hits), f1(hitPct), f1(on.p99),
			f1(float64(on.wall.Nanoseconds())/float64(horizon)))
	}
	for _, m := range []struct{ w, h, cycles int }{{16, 16, 512}, {32, 32, 256}} {
		s := expressSaturated(m.w, m.h, m.cycles)
		hitPct := 0.0
		if s.sent > 0 {
			hitPct = 100 * float64(s.hits) / float64(s.sent)
		}
		r.AddRow("saturated "+d(m.w)+"x"+d(m.h), u(s.sent), u(s.delivered),
			u(s.hits), f1(hitPct), f1(s.p99),
			f1(float64(s.wall.Nanoseconds())/float64(m.cycles)))
	}
	if identical {
		r.Note("bypass-off differential: sent/delivered/flits_routed/p99 bit-identical for every sparse row")
	} else {
		r.Note("MISMATCH: bypass changed simulated outcome (equivalence bug)")
	}
	r.Note("saturated rows: the bypass never engages (hit%%=0 by construction) and adds no per-cycle cost")
	return r
}
