package main

import (
	"fmt"
	"runtime"
	"time"
)

// bench runs one workload for one invocation. Each run boots the scenario
// afresh and drives it to the drain; attempted counts runs, and a run fails
// when any correctness check on it fails.
type bench struct {
	w      *workload
	text   string
	budget time.Duration

	ref  *outcome // first run's outcome; every later run must equal it
	runs int
}

// bootsPerRun is how many times each run boots the scenario: setup_s is
// the median over all boots, and only the last boot is driven.
const bootsPerRun = 3

// hostRun is what one run measured on the host.
type hostRun struct {
	setup   []float64 // seconds per boot
	run     float64   // seconds inside RunScenario
	cycles  float64   // simulated cycles (fleet clock) at the drain
	mallocs float64
	bytes   float64
	out     outcome
}

// boot sets the workload up boots times, timing each boot, and returns the
// last instance. Each boot starts from a collected heap, so a boot is not
// charged for collecting the previous run's garbage.
func (b *bench) boot(o runOpts, boots int) (*instance, []float64, error) {
	var setup []float64
	for i := 0; i < boots; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := b.w.setup(b.text, o)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, d)
		if i == boots-1 {
			return in, setup, nil
		}
		in.close()
	}
	return nil, nil, fmt.Errorf("boot: no boots requested")
}

// check folds one run's outcome into the invocation: the first run sets
// the reference and every later one must match it field for field.
func (b *bench) check(in *instance, label string) (outcome, error) {
	b.runs++
	o, err := collectOutcome(in)
	if err != nil {
		return o, fmt.Errorf("%s run %d (%s): %w", b.w.name, b.runs, label, err)
	}
	if b.ref == nil {
		b.ref = &o
	} else if o != *b.ref {
		return o, fmt.Errorf("%s run %d (%s): outcome %+v differs from first run %+v",
			b.w.name, b.runs, label, o, *b.ref)
	}
	return o, nil
}

// timedRun boots and drives one untraced run, timing setup and the run and
// counting heap allocations inside RunScenario only.
func (b *bench) timedRun(o runOpts, label string) (hostRun, error) {
	in, setup, err := b.boot(o, bootsPerRun)
	if err != nil {
		return hostRun{}, err
	}
	defer in.close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	in.runScenario()
	d := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	out, err := b.check(in, label)
	return hostRun{
		setup: setup, run: d, cycles: float64(in.now()),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:   float64(m1.TotalAlloc - m0.TotalAlloc),
		out:     out,
	}, err
}

// warmup makes the untimed first run. For the fleet it runs at one worker,
// so the later nproc-worker runs double as the workers-1 vs workers-nproc
// determinism check.
func (b *bench) warmup() error {
	o := runOpts{}
	label := "warm-up"
	if b.w.fleet {
		o.workers = 1
		label = "warm-up, workers 1"
	}
	_, err := b.timedRun(o, label)
	return err
}

// measure makes at least min timed untraced runs, and more while another
// run, as long as the last one, still fits in the budget.
func (b *bench) measure(budget time.Duration, min int) ([]hostRun, error) {
	var runs []hostRun
	start := time.Now()
	var last time.Duration
	for len(runs) < min || time.Since(start)+last < budget {
		t := time.Now()
		r, err := b.timedRun(runOpts{}, "untraced")
		if err != nil {
			return runs, err
		}
		last = time.Since(t)
		runs = append(runs, r)
	}
	return runs, nil
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (map[string]float64, error) {
	if err := b.warmup(); err != nil {
		return nil, err
	}
	runs, err := b.measure(b.budget, 3)
	if err != nil {
		return nil, err
	}
	var setup, reqs, cycles, allocs, bytes []float64
	for _, r := range runs {
		setup = append(setup, r.setup...)
		ok := float64(r.out.ok)
		reqs = append(reqs, ok/r.run)
		cycles = append(cycles, r.cycles/r.run)
		allocs = append(allocs, r.mallocs/ok)
		bytes = append(bytes, r.bytes/ok)
	}
	m := b.ref.simMetrics()
	m["sim_req_per_s"] = median(reqs)
	m["sim_cycles_per_s"] = median(cycles)
	m["setup_s"] = median(setup)
	m["host_allocs_per_req"] = median(allocs)
	m["host_alloc_bytes_per_req"] = median(bytes)
	return m, nil
}
