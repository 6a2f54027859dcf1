package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"apiary/internal/core"
	"apiary/internal/obs"
)

const (
	// cpuHz is the CPU-profile sampling rate asked for: above the default
	// 100 Hz so the small layers (fabric, memseg) get samples. The kernel
	// may cap it (CPU timers fire on the scheduler tick), so host time is
	// apportioned by sample share of the measured process CPU time, never
	// by this nominal rate.
	cpuHz = 1000
	// memRate samples one allocation per this many bytes on average, fine
	// enough that a layer allocating a few bytes per request still shows,
	// coarse enough that sampling costs the CPU profile only a few percent.
	memRate = 4096
	// spanEvery samples one packet in this many per NI, so even the sparse
	// workload retains over a thousand spans for its span p99s.
	spanEvery = 8
)

// traced makes the traced run: traced runs with spans on, CPU and heap
// profiling, and (fleets) one Fleet.Run call per epoch, each paired with an
// untraced run so host drift hits both sides of the overhead ratio alike.
// Every run must reproduce the first run's outcome exactly — observation
// never changes what the simulated clients see.
func (b *bench) traced() (map[string]float64, error) {
	if err := b.warmup(); err != nil {
		return nil, err
	}
	prevRate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = prevRate }()

	var (
		m         map[string]float64 // per-layer counters of the first traced run
		cpuTicks  = map[string]int64{}
		ticks     int64
		cpuNs     float64
		heapBytes = map[string]float64{}
		baseRun   []float64
		tracedRun []float64
		epochNs   []uint64
		okTotal   float64
		start     = time.Now()
		last      time.Duration
	)
	for len(tracedRun) < 2 || time.Since(start)+last < b.budget {
		t := time.Now()
		runtime.MemProfileRate = prevRate
		base, err := b.timedRun(runOpts{}, "untraced")
		if err != nil {
			return nil, err
		}
		runtime.MemProfileRate = memRate
		r, err := b.tracedRun(heapBytes, m == nil)
		if err != nil {
			return nil, err
		}
		if m == nil {
			m = r.counters
			printHotSpots(r.samples)
		}
		for _, s := range r.samples {
			cpuTicks[bucket(s.stack, false)] += s.count
			ticks += s.count
		}
		cpuNs += r.cpuNs
		okTotal += float64(r.ok)
		baseRun = append(baseRun, base.run)
		tracedRun = append(tracedRun, r.run)
		epochNs = append(epochNs, r.epochNs...)
		last = time.Since(t)
	}

	for _, l := range layers {
		m[l+".host_ns_per_req"] = ratio(float64(cpuTicks[l]), float64(ticks)) * cpuNs / okTotal
		m[l+".alloc_bytes_per_req"] = heapBytes[l] / okTotal
	}
	// Boards have no epochs; their epoch timings read 0.
	sort.Slice(epochNs, func(i, j int) bool { return epochNs[i] < epochNs[j] })
	p50, _ := percentile(epochNs, 0.5)
	p99, _ := percentile(epochNs, 0.99)
	m["cluster.epoch_host_us_p50"] = p50 / 1e3
	m["cluster.epoch_host_us_p99"] = p99 / 1e3
	m["bench.trace_overhead_frac"] = median(tracedRun)/median(baseRun) - 1
	return m, nil
}

// tracedSample is what one traced run measured.
type tracedSample struct {
	ok       uint64
	run      float64 // seconds driving the scenario
	cpuNs    float64 // process CPU time over the same span
	samples  []cpuSample
	epochNs  []uint64
	counters map[string]float64 // when asked for
}

// tracedRun boots the workload with spans on and drives it under the CPU
// profiler, adding the run's allocations by layer to heapBytes.
func (b *bench) tracedRun(heapBytes map[string]float64, counters bool) (tracedSample, error) {
	var r tracedSample
	in, _, err := b.boot(runOpts{spanEvery: spanEvery}, 1)
	if err != nil {
		return r, err
	}
	defer in.close()
	heap0 := heapProfile()
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(cpuHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return r, fmt.Errorf("cpu profile: %w", err)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	in.runEpochs(func(run func()) {
		e0 := time.Now()
		run()
		r.epochNs = append(r.epochNs, uint64(time.Since(e0).Nanoseconds()))
	})
	r.run = time.Since(t0).Seconds()
	r.cpuNs = float64(cpuTime() - cpu0)
	pprof.StopCPUProfile()
	runtime.GC()
	addHeapDelta(heapBytes, heap0, heapProfile())

	o, err := b.check(in, "traced")
	if err != nil {
		return r, err
	}
	r.ok = o.ok
	if r.samples, err = parseCPUProfile(prof.Bytes()); err != nil {
		return r, err
	}
	if counters {
		r.counters, err = layerCounters(in, o)
	}
	return r, err
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapProfile snapshots the cumulative allocation profile. Call it right
// after runtime.GC, which publishes every allocation made before it.
func heapProfile() map[[32]uintptr]runtime.MemProfileRecord {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		out[r.Stack0] = r
	}
	return out
}

// addHeapDelta attributes the bytes allocated between two heap snapshots to
// layers, undoing the sampling the way pprof does: a sampled record of
// average object size s stands for 1/(1-e^(-s/rate)) times its bytes.
func addHeapDelta(into map[string]float64, before, after map[[32]uintptr]runtime.MemProfileRecord) {
	for key, r := range after {
		prev := before[key]
		objs := r.AllocObjects - prev.AllocObjects
		sz := float64(r.AllocBytes - prev.AllocBytes)
		if objs <= 0 || sz <= 0 {
			continue
		}
		avg := sz / float64(objs)
		scale := 1 / (1 - math.Exp(-avg/float64(memRate)))
		into[bucket(stackNames(r.Stack()), true)] += sz * scale
	}
}

// stackNames resolves a call stack, leaf first, expanding inlined frames.
func stackNames(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// printHotSpots writes the functions with the largest cumulative share of
// the first traced run's CPU samples — the view the ledger's profile table
// is kept in. It goes to standard error so the result stays the last line
// of standard output.
func printHotSpots(samples []cpuSample) {
	cum := map[string]int64{}
	self := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		if len(s.stack) > 0 {
			self[s.stack[0]] += s.count
		}
		seen := map[string]bool{}
		for _, fn := range s.stack {
			if !seen[fn] {
				seen[fn] = true
				cum[fn] += s.count
			}
		}
	}
	if total == 0 {
		return
	}
	names := make([]string, 0, len(cum))
	for fn := range cum {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if cum[names[i]] != cum[names[j]] {
			return cum[names[i]] > cum[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(os.Stderr, "hot spots of the first traced run (%d CPU samples): cum%% self%% function\n", total)
	for i, fn := range names {
		if i == 25 {
			break
		}
		fmt.Fprintf(os.Stderr, "  %5.1f %5.1f %s\n",
			100*float64(cum[fn])/float64(total), 100*float64(self[fn])/float64(total), fn)
	}
}

// layerCounters reads the per-layer counters of one drained traced run.
func layerCounters(in *instance, o outcome) (map[string]float64, error) {
	c := map[string]float64{}
	var boardCycles, skipped float64
	var spans []obs.Breakdown
	var migrations, failovers float64
	for _, sys := range in.systems() {
		for _, ctr := range sys.Stats.Counters() {
			c[ctr.Name] += float64(ctr.Value())
		}
		boardCycles += float64(sys.Engine.Now())
		skipped += float64(sys.Engine.SkippedCycles())
		migrations += float64(sys.Kernel.MigrationsDone())
		for _, e := range sys.Obs.Entries() {
			spans = append(spans, obs.SpanBreakdown(e.Span))
		}
	}
	var relayed, toDead float64
	if fr := in.fleet; fr != nil {
		relayed = float64(fr.Fl.Relayed())
		toDead = float64(fr.Fl.DroppedToDead())
		migrations += float64(fr.Fl.Orchestrator().MigrationsDone())
		failovers = float64(fr.Fl.Orchestrator().Failovers())
	}
	failovers += c["kernel.failovers"]
	ok := float64(o.ok)
	m := map[string]float64{
		"sim.skipped_cycle_frac":       ratio(skipped, boardCycles),
		"noc.flits_per_req":            c["noc.flits_routed"] / ok,
		"noc.express_hit_frac":         ratio(c["noc.express_hits"], c["noc.msgs_sent"]),
		"noc.stall_cycles_per_req":     (c["noc.stall_no_credit"] + c["noc.stall_no_vc"] + c["noc.stall_fault"]) / ok,
		"monitor.cap_checks_per_req":   c["mon.cap_checks"] / ok,
		"monitor.denied_per_req":       c["mon.denied"] / ok,
		"accel.shed_per_req":           c["shell.shed"] / ok,
		"netstack.tx_segments_per_req": c["tp.tx_segments"] / ok,
		"netstack.retransmit_frac":     ratio(c["tp.retransmits"], c["tp.tx_segments"]),
		"netsim.frames_per_req":        c["netsim.frames_sent"] / ok,
		"netsim.drop_frac":             ratio(c["netsim.frames_dropped"], c["netsim.frames_sent"]),
		"cluster.relayed_per_req":      relayed / ok,
		"cluster.dropped_to_dead":      toDead,
		"core.syscalls_per_req":        c["kernel.syscalls"] / ok,
		"core.migrations":              migrations,
		"core.failovers":               failovers,
		"load.completed":               ok,
		"load.failed_frac":             o.failedFrac(),
	}
	for k, v := range spanMetrics(spans) {
		m[k] = v
	}
	snapBytes, enc, dec, err := snapshotRoundTrip(in)
	if err != nil {
		return nil, err
	}
	m["core.snapshot_bytes"] = snapBytes
	m["core.snapshot_encode_us"] = enc
	m["core.snapshot_decode_us"] = dec
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics summarizes the flight recorder's NoC spans: p99 of each
// latency stage and the mean hop count.
func spanMetrics(spans []obs.Breakdown) map[string]float64 {
	var ni, vc, sw []uint64
	var hops float64
	for _, b := range spans {
		ni = append(ni, uint64(b.NIQueue))
		vc = append(vc, uint64(b.VCWait))
		sw = append(sw, uint64(b.SwitchWait))
		hops += float64(b.Hops)
	}
	p99 := func(xs []uint64) float64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		v, err := percentile(xs, 0.99)
		if err != nil {
			return 0 // too few spans for a p99: reported as absent
		}
		return v
	}
	return map[string]float64{
		"noc.span_ni_queue_p99_cy":    p99(ni),
		"noc.span_vc_wait_p99_cy":     p99(vc),
		"noc.span_switch_wait_p99_cy": p99(sw),
		"noc.span_hops_mean":          ratio(hops, float64(len(spans))),
		"noc.spans_sampled":           float64(len(spans)),
	}
}

// snapshotRoundTrip quiesces a surviving replica of the scenario service
// after the run, checkpoints it, and times core.EncodeSnapshot and
// core.DecodeSnapshot on the result. The decoded snapshot must re-encode to
// the same bytes.
func snapshotRoundTrip(in *instance) (size, encUs, decUs float64, err error) {
	k, name, runUntil := in.backend()
	if k == nil {
		return 0, 0, 0, fmt.Errorf("snapshot: no live replica of the scenario service")
	}
	if err := k.QuiesceApp(name); err != nil {
		return 0, 0, 0, fmt.Errorf("snapshot: %w", err)
	}
	if !runUntil(func() bool { return k.AppQuiescent(name) }, 200_000) {
		return 0, 0, 0, fmt.Errorf("snapshot: %s did not quiesce", name)
	}
	snap, err := k.Checkpoint(name)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("snapshot: %w", err)
	}
	var enc []byte
	encUs = timeOp(func() { enc = core.EncodeSnapshot(snap) })
	var dec *core.Snapshot
	var decErr error
	decUs = timeOp(func() { dec, decErr = core.DecodeSnapshot(enc) })
	if decErr != nil {
		return 0, 0, 0, fmt.Errorf("snapshot: decode: %w", decErr)
	}
	if !bytes.Equal(core.EncodeSnapshot(dec), enc) {
		return 0, 0, 0, fmt.Errorf("snapshot: decode/encode round trip changed the bytes")
	}
	return float64(len(enc)), encUs, decUs, nil
}

// timeOp returns the median time of fn in microseconds over enough calls to
// fill 20 ms (at least 21).
func timeOp(fn func()) float64 {
	var us []float64
	start := time.Now()
	for len(us) < 21 || time.Since(start) < 20*time.Millisecond {
		t := time.Now()
		fn()
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us)
}
