package main

import (
	"fmt"
	"math"
	"sort"

	"apiary/internal/load"
)

// outcome is the simulated, client-visible result of one run. For a fixed
// seed every field is deterministic: two runs of the same workload that
// disagree on any of them have found a bug, not noise.
type outcome struct {
	fingerprint uint64
	offered     uint64
	ok          uint64
	denied      uint64
	timeout     uint64
	shed        uint64
	scnCycles   uint64 // scenario length, the goodput denominator
	p50         float64
	p99         float64
	p999        float64
}

func (o outcome) failed() uint64 { return o.denied + o.timeout + o.shed }

// failedFrac is (denied + timeout + shed) ÷ offered: a refused request
// counts as failed.
func (o outcome) failedFrac() float64 {
	if o.offered == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.offered)
}

// goodput is OK completions per 1e6 simulated cycles of scenario.
func (o outcome) goodput() float64 {
	return float64(o.ok) * 1e6 / float64(o.scnCycles)
}

// collectOutcome checks the drained run's invariants and computes its
// simulated metrics. It fails when an arrival is unresolved or resolved
// twice, when outcome counters disagree with the recorded stream, or when a
// percentile rests on too few samples.
func collectOutcome(in *instance) (outcome, error) {
	o := outcome{fingerprint: in.fingerprint(), scnCycles: uint64(in.scenario().Dur())}
	if !in.done() {
		return o, fmt.Errorf("scenario did not drain: arrivals still unresolved at cycle %d", in.now())
	}
	var lat []uint64
	for _, g := range in.gens() {
		off, ok, den, to, shed := g.Totals()
		o.offered += off
		o.ok += ok
		o.denied += den
		o.timeout += to
		o.shed += shed
		l, err := resolve(g.Recording(), [4]uint64{ok, den, to, shed})
		if err != nil {
			return o, err
		}
		lat = append(lat, l...)
	}
	if o.offered != o.ok+o.failed() {
		return o, fmt.Errorf("offered %d != ok %d + denied %d + timeout %d + shed %d",
			o.offered, o.ok, o.denied, o.timeout, o.shed)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var err error
	if o.p50, err = percentile(lat, 0.5); err != nil {
		return o, err
	}
	if o.p99, err = percentile(lat, 0.99); err != nil {
		return o, err
	}
	if o.p999, err = percentile(lat, 0.999); err != nil {
		return o, err
	}
	return o, nil
}

// resolve matches every recorded arrival with exactly one completion and
// returns the arrival-stamped latency of each OK completion. want holds
// the generator's own ok/denied/timeout/shed counters, which the stream
// must reproduce.
func resolve(rec *load.Recording, want [4]uint64) ([]uint64, error) {
	arrive := make(map[uint32]uint64, len(rec.Arrivals))
	for _, a := range rec.Arrivals {
		if _, dup := arrive[a.Seq]; dup {
			return nil, fmt.Errorf("arrival seq %d recorded twice", a.Seq)
		}
		arrive[a.Seq] = uint64(a.At)
	}
	var got [4]uint64
	lat := make([]uint64, 0, len(rec.Completions))
	for _, c := range rec.Completions {
		at, ok := arrive[c.Seq]
		if !ok {
			return nil, fmt.Errorf("completion seq %d has no pending arrival", c.Seq)
		}
		delete(arrive, c.Seq)
		if uint64(c.At) < at {
			return nil, fmt.Errorf("seq %d completed at %d before arriving at %d", c.Seq, c.At, at)
		}
		if int(c.Outcome) >= len(got) {
			return nil, fmt.Errorf("seq %d has unknown outcome %v", c.Seq, c.Outcome)
		}
		got[c.Outcome]++
		if c.Outcome == load.OutcomeOK {
			lat = append(lat, uint64(c.At)-at)
		}
	}
	if len(arrive) > 0 {
		return nil, fmt.Errorf("%d arrivals never resolved", len(arrive))
	}
	if got != want {
		return nil, fmt.Errorf("recorded outcomes ok/denied/timeout/shed %v != counters %v", got, want)
	}
	return lat, nil
}

// minTail is how many samples must lie beyond a percentile for it to be
// reported at all.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted, refusing when
// fewer than minTail samples lie beyond it (p99.9 needs 10 000 samples).
func percentile(sorted []uint64, q float64) (float64, error) {
	n := len(sorted)
	if float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples, have %d",
			100*q, int(math.Ceil(minTail/(1-q)-1e-9)), n)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank]), nil
}

// simMetrics lists the simulated end-to-end metrics of o by name.
func (o outcome) simMetrics() map[string]float64 {
	return map[string]float64{
		"goodput_rpmc": o.goodput(),
		"p50_cycles":   o.p50,
		"p99_cycles":   o.p99,
		"p999_cycles":  o.p999,
		"ok_frac":      ratio(float64(o.ok), float64(o.offered)),
	}
}
