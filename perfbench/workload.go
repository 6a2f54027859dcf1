package main

import (
	"fmt"
	"runtime"

	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/load"
	"apiary/internal/netsim"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// All workloads are open loop in simulated time and use the E21 class mix
// (get weight 8 with 16 B payloads, put weight 2 with 96 B payloads).
// Phase lengths are sized so every run completes well over 10 000 requests,
// the floor below which p99.9 has fewer than ten samples beyond it, and so
// the tail percentiles vary little from seed to seed: near the knee that
// takes 360 000 requests.
const (
	boardScn = `scenario %s
seed %d
sessions 250000
target svc=40
timeout 20000
class get weight=8 bytes=16
class put weight=2 bytes=96
phase load dur=%d rate=%d
`
	fleetScn = `scenario fleet16
seed %d
sessions 1000000
target svc=40 mem=16384
timeout 20000
fleet boards=16 replicas=4 clients=8
class get weight=8 bytes=16
class put weight=2 bytes=96
phase load dur=%d rate=18000
migrate replica=1 at=%d
kill board=0 at=%d
`
	// drain is the run-out budget past the scenario end; every workload
	// resolves all arrivals well inside it.
	drain = sim.Cycle(30000)
)

// workload is one named traffic mix. scenario renders its DSL text for a
// seed; the program under test only ever sees that text.
type workload struct {
	name     string
	fleet    bool
	scenario func(seed uint64) string
}

var workloads = []workload{
	{
		// Just under the ~20k rpMc single-board knee: NoC, shell, monitor
		// and generator work every cycle and queueing shapes the tail.
		name: "board-knee",
		scenario: func(seed uint64) string {
			return fmt.Sprintf(boardScn, "board-knee", seed, 20_000_000, 18000)
		},
	},
	{
		// About 8% of the knee: the board is mostly idle, so per-cycle
		// ticking and Idle() polling dominate host time.
		name: "board-sparse",
		scenario: func(seed uint64) string {
			return fmt.Sprintf(boardScn, "board-sparse", seed, 8_000_000, 1500)
		},
	},
	{
		// The only workload that crosses boards: netstack, netsim, fabric,
		// the cluster barrier, a live migration and a board-kill failover.
		name:  "fleet16",
		fleet: true,
		scenario: func(seed uint64) string {
			const dur = 800_000
			return fmt.Sprintf(fleetScn, seed, dur, dur/4, dur/2)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOpts are the knobs one run varies: fleet workers (the determinism
// check compares 1 against nproc) and span sampling (traced runs only).
type runOpts struct {
	workers   int
	spanEvery int
}

// instance is one booted workload: exactly one of board and fleet is set.
type instance struct {
	board *load.BoardRun
	fleet *load.FleetRun
}

// setup parses the scenario text and boots it — the span setup_s times.
func (w *workload) setup(text string, o runOpts) (*instance, error) {
	scn, err := load.ParseScenario([]byte(text))
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", w.name, err)
	}
	if !w.fleet {
		br, err := load.NewBoardRun(scn, core.SystemConfig{
			Dims:            noc.Dims{W: 4, H: 4},
			ManagedMemBytes: 1 << 20,
			SpanSampleEvery: o.spanEvery,
			SpanCap:         spanCap,
		})
		if err != nil {
			return nil, fmt.Errorf("boot %s: %w", w.name, err)
		}
		return &instance{board: br}, nil
	}
	workers := o.workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	fr, err := load.NewFleetRun(scn, cluster.Config{
		Workers: workers,
		Board: core.SystemConfig{
			Dims:            noc.Dims{W: 3, H: 3},
			ManagedMemBytes: 1 << 20,
			SpanSampleEvery: o.spanEvery,
			SpanCap:         spanCap,
		},
		Link: netsim.LinkConfig{LatencyNs: 1000},
	})
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", w.name, err)
	}
	return &instance{fleet: fr}, nil
}

// spanCap bounds each board's flight-recorder ring. Span percentiles cover
// the last spanCap spans of each board — the whole run on all workloads
// except board-knee, which samples about 90 000.
const spanCap = 1 << 16

// runScenario drives the scenario to completion through the public
// RunScenario entry point.
func (in *instance) runScenario() {
	if in.fleet != nil {
		in.fleet.RunScenario(drain)
	} else {
		in.board.RunScenario(drain)
	}
}

// runEpochs drives a fleet one epoch at a time with the same phase-aligned
// stepping RunScenario uses, reporting each Fleet.Run call's host time.
// Boards have no epochs; they fall back to runScenario.
func (in *instance) runEpochs(observe func(run func())) {
	fr := in.fleet
	if fr == nil {
		in.runScenario()
		return
	}
	limit := fr.Scn.Dur() + drain
	for !fr.Done() && fr.Now() < limit {
		step := limit - fr.Now()
		if edge := fr.Scn.NextBoundary(fr.Now()); edge > fr.Now() && edge-fr.Now() < step {
			step = edge - fr.Now()
		}
		if e := fr.Fl.Epoch(); step > e {
			step = e
		}
		observe(func() { fr.Fl.Run(step) })
	}
}

func (in *instance) now() sim.Cycle {
	if in.fleet != nil {
		return in.fleet.Now()
	}
	return in.board.Now()
}

func (in *instance) done() bool {
	if in.fleet != nil {
		return in.fleet.Done()
	}
	return in.board.Done()
}

func (in *instance) fingerprint() uint64 {
	if in.fleet != nil {
		return in.fleet.Fingerprint()
	}
	return in.board.Fingerprint()
}

func (in *instance) gens() []*load.Generator {
	if in.fleet != nil {
		return in.fleet.Gens
	}
	return []*load.Generator{in.board.Gen}
}

func (in *instance) systems() []*core.System {
	if in.fleet == nil {
		return []*core.System{in.board.Sys}
	}
	out := make([]*core.System, in.fleet.Fl.Boards())
	for i := range out {
		out[i] = in.fleet.Fl.Board(i).Sys
	}
	return out
}

func (in *instance) scenario() *load.Scenario {
	if in.fleet != nil {
		return in.fleet.Scn
	}
	return in.board.Scn
}

func (in *instance) close() {
	if in.fleet != nil {
		in.fleet.Close()
	}
}

// backend finds a live replica of the scenario service: its kernel, its
// app name, and a RunUntil that advances the whole instance.
func (in *instance) backend() (*core.Kernel, string, func(func() bool, sim.Cycle) bool) {
	if in.fleet == nil {
		return in.board.Sys.Kernel, "scn-backend", in.board.Sys.Engine.RunUntil
	}
	fl := in.fleet.Fl
	for i := 0; i < fl.Boards(); i++ {
		if fl.Board(i).Dead() {
			continue
		}
		k := fl.Board(i).Sys.Kernel
		for r := 0; r < in.fleet.Scn.Fleet.Replicas; r++ {
			if name := fmt.Sprintf("scn-backend-r%d", r); k.App(name) != nil {
				return k, name, fl.RunUntil
			}
		}
	}
	return nil, "", nil
}
