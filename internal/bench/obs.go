package bench

import (
	"time"

	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/obs"
	"apiary/internal/sim"
)

// obsRun drives request/reply traffic over an 8x8 mesh with the flight
// recorder at the given sampling rate (0 = off) and reports the counters,
// recorder accounting and wall-clock cost.
func obsRun(every int) (sent, delivered uint64, rec *obs.Recorder, histP99 float64, nsPerCycle float64) {
	e := sim.NewEngine(21)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 8, H: 8}})
	if every > 0 {
		rec = obs.NewRecorder(every, 8192)
		n.SetSpanSampler(rec)
	}
	tiles := n.Dims().Tiles()
	for i := 0; i < tiles; i++ {
		tile := msg.TileID(i)
		n.NI(tile).SetDeliver(func(m *msg.Message, lat sim.Cycle) {
			if m.Type == msg.TRequest {
				_ = n.NI(tile).Send(m.Reply(msg.TReply, nil))
			}
		})
	}
	rng := sim.NewRNG(21)
	var seq uint32
	const waves = 200
	for w := 0; w < waves; w++ {
		e.Schedule(sim.Cycle(1+4*w), func(now sim.Cycle) {
			for k := 0; k < 16; k++ {
				src := msg.TileID(rng.Intn(tiles))
				m := &msg.Message{Type: msg.TRequest, SrcTile: src,
					DstTile: msg.TileID(rng.Intn(tiles)), Seq: seq,
					Payload: make([]byte, 64)}
				seq++
				_ = n.NI(src).Send(m)
			}
		})
	}
	start := time.Now()
	e.Run(sim.Cycle(1 + 4*waves))
	e.RunUntil(n.Quiescent, 100000)
	nsPerCycle = float64(time.Since(start).Nanoseconds()) / float64(e.Now())
	sent = st.Counter("noc.msgs_sent").Value()
	delivered = st.Counter("noc.msgs_delivered").Value()
	histP99 = st.Histogram("noc.msg_latency_cycles").P99()
	return
}

// spanP99 computes the p99 end-to-end latency over the recorder's retained
// spans — the cross-check that the sampled spans measure the same
// distribution as the exhaustive histogram.
func spanP99(rec *obs.Recorder) float64 {
	ents := rec.Entries()
	if len(ents) == 0 {
		return 0
	}
	lats := make([]int, 0, len(ents))
	for _, e := range ents {
		lats = append(lats, int(e.Span.Latency()))
	}
	for i := 1; i < len(lats); i++ {
		for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
			lats[j], lats[j-1] = lats[j-1], lats[j]
		}
	}
	return float64(lats[int(0.99*float64(len(lats)-1))])
}

// E15Observability quantifies the flight recorder: simulation results must
// be identical at every sampling rate (pure observation), sampled span p99
// should track the exhaustive histogram p99, and the wall-clock overhead of
// 1-in-64 sampling should be in the noise.
func E15Observability() Result {
	r := Result{
		ID:     "E15",
		Title:  "Observability: flight-recorder overhead and span accounting",
		Header: []string{"Sampling", "Sent", "Delivered", "Spans", "Correlated", "Hist-p99cy", "Span-p99cy", "ns/cycle"},
	}
	type run struct {
		label string
		every int
	}
	obsRun(0) // warm-up: page in code/data so the first row's ns/cycle isn't inflated
	var baseSent, baseDelivered uint64
	var baseP99, baseNs float64
	for i, cfg := range []run{{"off", 0}, {"1-in-64", 64}, {"every", 1}} {
		sent, delivered, rec, histP99, ns := obsRun(cfg.every)
		if i == 0 {
			baseSent, baseDelivered, baseP99, baseNs = sent, delivered, histP99, ns
		}
		spans, correl, sp99 := uint64(0), uint64(0), 0.0
		if rec != nil {
			spans, correl, sp99 = rec.Total(), rec.Correlated(), spanP99(rec)
		}
		r.AddRow(cfg.label, u(sent), u(delivered), u(spans), u(correl),
			f1(histP99), f1(sp99), f1(ns))
		if sent != baseSent || delivered != baseDelivered || histP99 != baseP99 {
			r.Note("DETERMINISM VIOLATION at %s: results differ from sampling-off run", cfg.label)
		}
		if i == 1 && baseNs > 0 {
			r.Note("1-in-64 sampling wall-clock overhead: %+.1f%% (single run, noisy; see BenchmarkMeshSaturated/Unsampled for the steady-state A/B)", (ns/baseNs-1)*100)
		}
	}
	return r
}
