// Benchmarks: one testing.B per experiment in EXPERIMENTS.md (E1-E13), each
// regenerating its table and reporting headline metrics, plus
// microbenchmarks of the hot substrate paths (NoC, monitor, allocators,
// codecs, transport).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkE4 -benchtime=1x   # one full E4 run
package apiary_test

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"apiary"
	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/bench"
	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/memseg"
	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/noc"
	"apiary/internal/obs"
	"apiary/internal/sim"
)

// runExperiment executes an experiment b.N times and lets report extract
// custom metrics from the last result.
func runExperiment(b *testing.B, id string, report func(r bench.Result, b *testing.B)) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last bench.Result
	for i := 0; i < b.N; i++ {
		last = e.Run()
	}
	if report != nil {
		report(last, b)
	}
}

// metric parses a float out of a result cell (strips trailing unit junk).
func metric(r bench.Result, row int, col string) float64 {
	s := r.Cell(row, col)
	s = strings.TrimSuffix(strings.Split(s, "/")[0], "x")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func BenchmarkE1Table1(b *testing.B) {
	runExperiment(b, "e1", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 3, "LogicCells"), "VU29P_cells")
	})
}

func BenchmarkE2Figure1(b *testing.B) {
	runExperiment(b, "e2", nil)
}

func BenchmarkE3MonitorOverhead(b *testing.B) {
	runExperiment(b, "e3", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, len(r.Rows)-1, "Overhead%"), "VU29P_64tile_ovh_%")
	})
}

func BenchmarkE4Latency(b *testing.B) {
	runExperiment(b, "e4", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 0, "Direct-p50us"), "direct_64B_p50_us")
		b.ReportMetric(metric(r, 0, "Hosted-p50us"), "hosted_64B_p50_us")
		b.ReportMetric(metric(r, 0, "Speedup-p50"), "speedup_64B")
	})
}

func BenchmarkE5Energy(b *testing.B) {
	runExperiment(b, "e5", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 0, "Hosted/Direct"), "energy_ratio_64B")
	})
}

func BenchmarkE6IPC(b *testing.B) {
	runExperiment(b, "e6", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 0, "RTT-p50cy"), "ipc_8B_rtt_cycles")
		b.ReportMetric(metric(r, 0, "CheckOverhead%"), "cap_overhead_%")
	})
}

func BenchmarkE7RateLimit(b *testing.B) {
	runExperiment(b, "e7", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 1, "VictimOK"), "victim_ok_limited")
	})
}

func BenchmarkE8FailStop(b *testing.B) {
	runExperiment(b, "e8", nil)
}

func BenchmarkE9Preemption(b *testing.B) {
	runExperiment(b, "e9", nil)
}

func BenchmarkE10SegVsPage(b *testing.B) {
	runExperiment(b, "e10", func(r bench.Result, b *testing.B) {
		last := len(r.Rows) - 1 // paged row
		b.ReportMetric(metric(r, last, "WastedMB"), "paged_wasted_MB")
		b.ReportMetric(metric(r, last, "XlateEntries"), "paged_entries")
		b.ReportMetric(metric(r, 0, "XlateEntries"), "segment_entries")
	})
}

func BenchmarkE11Scenario(b *testing.B) {
	runExperiment(b, "e11", nil)
}

func BenchmarkE12ScaleOut(b *testing.B) {
	runExperiment(b, "e12", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 2, "Speedup"), "speedup_4_replicas")
	})
}

func BenchmarkE13Portability(b *testing.B) {
	runExperiment(b, "e13", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 0, "RTT-p50us"), "v7_10g_rtt_us")
		b.ReportMetric(metric(r, 1, "RTT-p50us"), "usp_100g_rtt_us")
	})
}

func BenchmarkE14RemoteService(b *testing.B) {
	runExperiment(b, "e14", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 0, "p50us"), "local_p50_us")
		b.ReportMetric(metric(r, 1, "p50us"), "remote_cpu_p50_us")
	})
}

func BenchmarkE15Observability(b *testing.B) {
	runExperiment(b, "e15", func(r bench.Result, b *testing.B) {
		b.ReportMetric(metric(r, 1, "Spans"), "spans_1in64")
		b.ReportMetric(metric(r, 1, "Correlated"), "correlated_1in64")
		b.ReportMetric(metric(r, 2, "Span-p99cy"), "span_p99_cy")
	})
}

// --- substrate microbenchmarks ---

// BenchmarkNoCMessage measures one 64-byte message crossing a 4x4 mesh
// corner to corner, including simulation overhead per delivered message.
func BenchmarkNoCMessage(b *testing.B) {
	e := sim.NewEngine(1)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 4, H: 4}})
	delivered := 0
	n.NI(15).SetDeliver(func(*msg.Message, sim.Cycle) { delivered++ })
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &msg.Message{Type: msg.TRequest, SrcTile: 0, DstTile: 15, Payload: payload}
		if err := n.NI(0).Send(m); err != nil {
			b.Fatal(err)
		}
		target := i + 1
		for delivered < target {
			e.Step()
		}
	}
}

// BenchmarkSystemCycle measures the cost of one simulated cycle of a full
// 9-tile board with an idle workload loaded.
func BenchmarkSystemCycle(b *testing.B) {
	sys, err := apiary.NewSystem(apiary.SystemConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sum := apiary.NewChecksum()
	if _, err := sys.Kernel.LoadApp(apiary.AppSpec{
		Name: "idle",
		Accels: []apiary.AppAccel{
			{Name: "s", New: func() apiary.Accelerator { return sum },
				Service: apiary.FirstUserService},
		},
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.Run(apiary.Cycle(b.N))
}

// BenchmarkEngineIdle measures the per-cycle cost of simulating a fully
// idle 8x8 mesh — the case the idle-skip fast-forward turns into O(1) per
// Run regardless of cycle count.
func BenchmarkEngineIdle(b *testing.B) {
	e := sim.NewEngine(1)
	st := sim.NewStats()
	noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 8, H: 8}})
	b.ResetTimer()
	e.Run(sim.Cycle(b.N))
	b.StopTimer()
	if b.N > 1 && e.SkippedCycles() == 0 {
		b.Fatal("idle mesh did not fast-forward")
	}
}

// benchMeshSaturated measures the per-cycle cost of a WxH mesh kept
// saturated with random traffic — the activity-driven router's worst case,
// where no cycles can be skipped and every tick does real switching work.
// spanEvery installs the flight recorder at 1-in-N sampling (0 = no
// recorder).
func benchMeshSaturated(b *testing.B, w, h, spanEvery int) {
	r := newSaturatedRig(b, w, h, spanEvery)
	r.topUp()
	b.ResetTimer()
	r.step(b.N)
}

// saturatedRig is the shared driver behind the saturated-mesh benchmarks
// and the steady-state allocation guard below.
type saturatedRig struct {
	tb    testing.TB
	e     *sim.Engine
	n     *noc.Network
	rng   *sim.RNG
	tiles int
	// Delivered messages go back on a free list and are reused by topUp, so
	// the steady-state loop performs zero heap allocations — the benchmark
	// measures the NoC, not the garbage collector (and the 0 allocs/op
	// guards below and in internal/noc rely on the same discipline).
	free    []*msg.Message
	payload []byte
}

func newSaturatedRig(tb testing.TB, w, h, spanEvery int) *saturatedRig {
	e := sim.NewEngine(7)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: w, H: h}})
	if spanEvery > 0 {
		n.SetSpanSampler(obs.NewRecorder(spanEvery, 0))
	}
	tiles := w * h
	r := &saturatedRig{
		tb: tb, e: e, n: n, rng: sim.NewRNG(7), tiles: tiles,
		free: make([]*msg.Message, 0, tiles*8), payload: make([]byte, 64),
	}
	for t := 0; t < tiles; t++ {
		n.NI(msg.TileID(t)).SetDeliver(func(m *msg.Message, _ sim.Cycle) {
			r.free = append(r.free, m)
		})
	}
	return r
}

func (r *saturatedRig) topUp() {
	for t := 0; t < r.tiles; t++ {
		for r.n.NI(msg.TileID(t)).QueuedPackets() < 4 {
			dst := msg.TileID(r.rng.Intn(r.tiles))
			if dst == msg.TileID(t) {
				dst = msg.TileID((int(dst) + 1) % r.tiles)
			}
			var m *msg.Message
			if k := len(r.free); k > 0 {
				m, r.free = r.free[k-1], r.free[:k-1]
				*m = msg.Message{}
			} else {
				m = &msg.Message{}
			}
			m.Type, m.SrcTile, m.DstTile, m.Payload = msg.TRequest, msg.TileID(t), dst, r.payload
			if err := r.n.NI(msg.TileID(t)).Send(m); err != nil {
				r.tb.Fatal(err)
			}
		}
	}
}

func (r *saturatedRig) step(cycles int) {
	for i := 0; i < cycles; i++ {
		if i%16 == 0 {
			r.topUp()
		}
		r.e.Step()
	}
}

// TestMeshSaturatedAllocs is the steady-state allocation guard for the
// saturated hot path: once the packet pools, free list, and staging slices
// have reached their high-water marks, a full saturated 8x8 cycle — routing,
// credit flow, ejection, re-injection — must not touch the heap at all.
func TestMeshSaturatedAllocs(t *testing.T) {
	r := newSaturatedRig(t, 8, 8, 0)
	r.step(16384) // reach every pool's high-water mark first
	if avg := testing.AllocsPerRun(5, func() { r.step(256) }); avg != 0 {
		t.Fatalf("saturated mesh steady state allocates: %.2f allocs per 256 cycles", avg)
	}
}

// BenchmarkMeshSaturated runs with the flight recorder at its apiaryd
// default (1-in-64 sampling) so the headline per-cycle number includes the
// observability tax; the Unsampled variant is the A/B baseline.
func BenchmarkMeshSaturated(b *testing.B) {
	benchMeshSaturated(b, 4, 4, 64)
}

func BenchmarkMeshSaturatedUnsampled(b *testing.B) {
	benchMeshSaturated(b, 4, 4, 0)
}

// BenchmarkMeshSaturated16 scales the saturated workload to a 16x16 mesh
// (256 routers).
func BenchmarkMeshSaturated16(b *testing.B) {
	benchMeshSaturated(b, 16, 16, 0)
}

// BenchmarkMeshSaturated32 scales the saturated workload to a 32x32 mesh
// (1024 routers, 15360 port-VC states) — the size where the SoA layout's
// cache behaviour dominates and any per-tile pointer chasing would show up
// immediately in the per-cycle cost.
func BenchmarkMeshSaturated32(b *testing.B) {
	benchMeshSaturated(b, 32, 32, 0)
}

func BenchmarkSegmentAlloc(b *testing.B) {
	a := memseg.NewAllocator(1<<30, memseg.FirstFit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := a.Alloc(4096, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(s.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPagedAlloc(b *testing.B) {
	p := memseg.NewPagedAllocator(1<<30, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := p.Alloc(4096, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Free(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeFrame4K(b *testing.B) {
	frame := make([]byte, 4096)
	for i := range frame {
		frame[i] = byte(120 + i%32)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps.EncodeFrame(frame)
	}
}

func BenchmarkCompress4K(b *testing.B) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i % 97)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps.Compress(data)
	}
}

func BenchmarkChecksum4K(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps.Checksum64(data)
	}
}

func BenchmarkMessageEncodeDecode(b *testing.B) {
	m := &msg.Message{
		Type: msg.TRequest, SrcTile: 1, DstTile: 2, DstSvc: 16,
		Seq: 9, Payload: make([]byte, 256),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := msg.Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

// --- fleet benchmarks ---

// newBenchFleet builds a 16-board fleet where every board runs a
// never-draining local RPC loop (requester -> echo stage), so no board can
// idle-skip and each epoch does real per-cycle work on all 16 engines —
// the workload board-level parallelism is supposed to speed up.
func newBenchFleet(tb testing.TB, workers, spanEvery int) *cluster.Fleet {
	fl, err := cluster.New(cluster.Config{
		Boards:  16,
		Workers: workers,
		Seed:    7,
		Board: core.SystemConfig{
			Dims: noc.Dims{W: 3, H: 3},
			// Keep construction cheap: the DRAM model stores real bytes.
			ManagedMemBytes: 1 << 20,
			SpanSampleEvery: spanEvery,
		},
		Link: netsim.LinkConfig{LatencyNs: 1000},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < fl.Boards(); i++ {
		spec := core.AppSpec{
			Name: "churn",
			Accels: []core.AppAccel{
				{Name: "echo", Service: msg.FirstUserService,
					New: func() accel.Accelerator {
						return apps.NewStage(apps.StageConfig{
							Name:    "echo",
							Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
						})
					}},
				{Name: "req", Connect: []msg.ServiceID{msg.FirstUserService},
					New: func() accel.Accelerator {
						return apps.NewRequester(msg.FirstUserService, 1<<30, 0,
							func(int) []byte { return make([]byte, 32) }, nil)
					}},
			},
		}
		if _, err := fl.Board(i).Sys.Kernel.LoadApp(spec); err != nil {
			tb.Fatal(err)
		}
	}
	return fl
}

// BenchmarkFleet16 measures simulated fleet cycles per second with board
// parallelism on (workers = GOMAXPROCS) and the flight recorder at its
// apiaryd default (1-in-64 sampling), so the headline number includes the
// fleet observability tax; BenchmarkFleet16Unsampled is the A/B baseline
// (the pair bounds the tracing overhead), and BenchmarkFleet16Serial is the
// 1-worker baseline. All runs are bit-exact (TestFleetDifferential,
// TestFleetObsDifferential); only wall clock differs.
func BenchmarkFleet16(b *testing.B) {
	fl := newBenchFleet(b, 0, 64)
	fl.Run(10_000) // warm pools and queues
	b.ResetTimer()
	fl.Run(sim.Cycle(b.N))
}

func BenchmarkFleet16Unsampled(b *testing.B) {
	fl := newBenchFleet(b, 0, 0)
	fl.Run(10_000)
	b.ResetTimer()
	fl.Run(sim.Cycle(b.N))
}

func BenchmarkFleet16Serial(b *testing.B) {
	fl := newBenchFleet(b, 1, 0)
	fl.Run(10_000)
	b.ResetTimer()
	fl.Run(sim.Cycle(b.N))
}

// TestFleetScaling asserts the headline perf claim: a 16-board fleet at
// GOMAXPROCS >= 4 sustains at least 2x the cycles/sec of the 1-worker run.
// Skipped on hosts without enough CPUs to honestly measure it.
func TestFleetScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	if runtime.NumCPU() < 4 || runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >=4 CPUs for the scaling assertion (NumCPU=%d GOMAXPROCS=%d)",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	const cycles = 100_000
	measure := func(workers int) time.Duration {
		fl := newBenchFleet(t, workers, 0)
		fl.Run(10_000) // warm
		start := time.Now()
		fl.Run(cycles)
		return time.Since(start)
	}
	serial := measure(1)
	parallel := measure(runtime.GOMAXPROCS(0))
	speedup := float64(serial) / float64(parallel)
	t.Logf("fleet 16 boards: serial %v, parallel %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 2 {
		t.Fatalf("fleet speedup %.2fx < 2x at GOMAXPROCS=%d", speedup, runtime.GOMAXPROCS(0))
	}
}
