package noc

import (
	"fmt"
	"reflect"
	"testing"

	"apiary/internal/msg"
	"apiary/internal/sim"
)

// nocSnapshot captures everything externally observable about a finished
// run: every counter, every histogram's distribution, the full delivery
// order and per-link flit loads. Two runs are "bit-exact" iff their
// snapshots are deeply equal.
type nocSnapshot struct {
	Now             sim.Cycle
	Counters        map[string]uint64
	HistStats       map[string][6]float64 // count, mean, min, max, p50, p99
	Delivery        []string              // in delivery order
	Links           []LinkLoad
	Rejected        int
	CreditViolation string
}

// serialMode is the tick mode recorded in differential case names. The
// engine steps every ticker serially, one after another, so this is its
// only mode; the number 2 keeps the case names stable.
const serialMode = 2

// bandTicker ticks the row band of tiles [lo, hi): its routers, then its
// NIs, each in tile order — Network.Tick restricted to the band.
type bandTicker struct {
	n      *Network
	lo, hi int
}

func (b bandTicker) Tick(now sim.Cycle) {
	n := b.n
	for t := b.lo; t < b.hi; t++ {
		if n.soa.occ[t] != 0 {
			n.tickRouter(&n.routers[t], now)
		}
	}
	for t := b.lo; t < b.hi; t++ {
		if ni := &n.nis[t]; ni.queued != 0 {
			ni.tick(now)
		}
	}
}

// Idle reports whether the band holds no buffered flit and no queued NI.
func (b bandTicker) Idle() bool {
	for t := b.lo; t < b.hi; t++ {
		if b.n.soa.occ[t] != 0 || b.n.nis[t].queued != 0 {
			return false
		}
	}
	return true
}

// newBandedNetwork builds the mesh like NewNetwork but, for bands > 1,
// registers it with the engine as that many contiguous row-band tickers
// stepped in row order instead of one mesh ticker. Band b's NIs thus tick
// before band b+1's routers. Because every cross-tile effect of a tick
// (credit returns, ejections, counter deltas) waits for the commit phase,
// the split must not change any observable.
func newBandedNetwork(e *sim.Engine, st *sim.Stats, cfg Config, bands int) *Network {
	if bands == 1 {
		return NewNetwork(e, st, cfg)
	}
	n := newNetwork(e, st, cfg)
	w, h := cfg.Dims.W, cfg.Dims.H
	for b := 0; b < bands; b++ {
		e.Register(bandTicker{n: n, lo: b * h / bands * w, hi: (b + 1) * h / bands * w})
	}
	e.RegisterCommitter(n)
	return n
}

// runTraffic builds an 8x8 mesh ticked as the given number of row bands,
// with the given idle-skip setting, drives saturated uniform-random traffic
// from engine events (a traffic RNG separate from the engine's), runs to
// quiescence and snapshots the result.
func runTraffic(t *testing.T, seed uint64, bands int, idleSkip bool) nocSnapshot {
	t.Helper()
	e := sim.NewEngine(seed)
	e.SetIdleSkip(idleSkip)
	st := sim.NewStats()
	n := newBandedNetwork(e, st, Config{Dims: Dims{8, 8}}, bands)

	snap := nocSnapshot{
		Counters:  make(map[string]uint64),
		HistStats: make(map[string][6]float64),
	}
	tiles := n.Dims().Tiles()
	for i := 0; i < tiles; i++ {
		tile := msg.TileID(i)
		n.NI(tile).SetDeliver(func(m *msg.Message, lat sim.Cycle) {
			snap.Delivery = append(snap.Delivery,
				fmt.Sprintf("%d<-%d seq=%d lat=%d now=%d", tile, m.SrcTile, m.Seq, lat, e.Now()))
		})
	}

	// Injection waves: every 4 cycles an event sends a burst of random
	// messages. Events run before the tick phase, so Send takes the direct
	// (non-staged) path; the traffic RNG keeps the engine RNG untouched and
	// the pattern identical across configurations. Bursts of 24 msgs/4 cycles over 64 tiles keep the
	// mesh saturated (rejects from full NI queues are part of the pattern
	// and must themselves be deterministic).
	rng := sim.NewRNG(seed * 1234)
	types := []msg.Type{msg.TRequest, msg.TReply, msg.TCtlPing, msg.TMemRead, msg.TError}
	var seq uint32
	const waves = 50
	for w := 0; w < waves; w++ {
		e.Schedule(sim.Cycle(1+4*w), func(now sim.Cycle) {
			for k := 0; k < 24; k++ {
				src := msg.TileID(rng.Intn(tiles))
				m := &msg.Message{
					Type:    types[rng.Intn(len(types))],
					SrcTile: src,
					DstTile: msg.TileID(rng.Intn(tiles)),
					Seq:     seq,
					Payload: make([]byte, rng.Intn(200)),
				}
				seq++
				if err := n.NI(src).Send(m); err != nil {
					snap.Rejected++
				}
			}
		})
	}

	e.Run(sim.Cycle(1 + 4*waves))
	if !e.RunUntil(n.Quiescent, 200000) {
		t.Fatalf("mesh did not quiesce (bands=%d skip=%v)", bands, idleSkip)
	}
	// Land every configuration on the same final cycle so Now and the
	// utilization window match regardless of how fast each drained.
	if e.Now() < 3000 {
		e.Run(3000 - e.Now())
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
	return snap
}

// TestParallelDifferential pins the two-phase cycle under saturated random
// traffic on an 8x8 mesh: runs with the mesh ticked as 1, 2, 4 or 8 row
// bands, with idle-skip off and on — the one-band, skip-off case repeating
// the baseline — are bit-exact with the baseline in every noc.* counter,
// the latency distribution, the delivery order and the per-link flit
// counts, across seeds.
func TestParallelDifferential(t *testing.T) {
	for _, seed := range []uint64{7, 99, 2026} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := runTraffic(t, seed, 1, false)
			if base.CreditViolation != "" {
				t.Fatalf("credit invariant (baseline): %s", base.CreditViolation)
			}
			if len(base.Delivery) == 0 || base.Counters["noc.msgs_delivered"] == 0 {
				t.Fatal("baseline run delivered nothing; the differential proves nothing")
			}
			if base.Counters["noc.stall_no_credit"] == 0 {
				t.Fatal("baseline run never stalled on credits; traffic is not saturating")
			}

			for _, bands := range []int{1, 2, 4, 8} {
				for _, skip := range []bool{false, true} {
					bands, skip := bands, skip
					name := fmt.Sprintf("shards=%d/mode=%d/skip=%v", bands, serialMode, skip)
					t.Run(name, func(t *testing.T) {
						diffSnapshots(t, base, runTraffic(t, seed, bands, skip))
					})
				}
			}
		})
	}
}

func diffSnapshots(t *testing.T, want, got nocSnapshot) {
	t.Helper()
	if got.Now != want.Now {
		t.Errorf("Now = %d, want %d", got.Now, want.Now)
	}
	if got.Rejected != want.Rejected {
		t.Errorf("rejected sends = %d, want %d", got.Rejected, want.Rejected)
	}
	if got.CreditViolation != want.CreditViolation {
		t.Errorf("credit invariant: %q, want %q", got.CreditViolation, want.CreditViolation)
	}
	for name, w := range want.Counters {
		if g := got.Counters[name]; g != w {
			t.Errorf("counter %s = %d, want %d", name, g, w)
		}
	}
	for name, w := range want.HistStats {
		if g := got.HistStats[name]; g != w {
			t.Errorf("histogram %s = %v, want %v", name, g, w)
		}
	}
	if len(got.Delivery) != len(want.Delivery) {
		t.Fatalf("delivered %d messages, want %d", len(got.Delivery), len(want.Delivery))
	}
	for i := range want.Delivery {
		if got.Delivery[i] != want.Delivery[i] {
			t.Fatalf("delivery[%d] = %q, want %q", i, got.Delivery[i], want.Delivery[i])
		}
	}
	if !reflect.DeepEqual(got.Links, want.Links) {
		t.Errorf("link utilization differs")
	}
}
