// Command apiaryd boots a simulated Apiary board, loads application
// manifests, and runs them — the host-side daemon of the system. It can
// expose stats, Prometheus metrics, message spans and a NoC heatmap over
// HTTP while the simulation runs.
//
//	apiaryd -manifest video.json -cycles 10000000
//	apiaryd -board v7-10g -w 4 -h 4 -net -manifest apps.json -http :8091
//	curl :8091/metrics        # Prometheus text format
//	curl :8091/spans.json     # load in Perfetto / chrome://tracing
//	curl :8091/heatmap        # ASCII NoC heatmap (?format=json for dashboards)
//
// With -fleet N, apiaryd boots a whole fleet of boards instead of one,
// ticking them concurrently under lookahead synchronization:
//
//	apiaryd -fleet 8 -cycles 500000             # 8-board demo fleet
//	apiaryd -fleet 8 -fleet-kill 0 -fleet-kill-at 100000
//	                                            # kill board 0 mid-run
//
// With -scenario FILE, apiaryd compiles an open-loop load scenario (see
// internal/load) and drives it instead of a manifest workload — on one
// board, or on the fleet the scenario's own `fleet` stanza sizes. The run
// advances in chunks aligned to scenario phase boundaries, serves the live
// per-phase view on /scenario.json, and prints the per-phase
// goodput/latency table plus the client-visible fingerprint at exit:
//
//	apiaryd -w 4 -h 4 -scenario rush.scn -http :8091
//	apiaryd -scenario internal/load/testdata/smoke.scn   # 4-board fleet + kill
//	apiaryd -w 4 -h 4 -scenario rush.scn -scenario-record run.rec
//	apiaryd -w 4 -h 4 -scenario rush.scn -scenario-replay run.rec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"

	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/fault"
	"apiary/internal/load"
	"apiary/internal/manifest"
	"apiary/internal/monitor"
	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/noc"
	"apiary/internal/obs"
	"apiary/internal/sim"
)

func main() {
	board := flag.String("board", "usp-100g", "board name (v7-10g, usp-100g)")
	w := flag.Int("w", 3, "NoC mesh width")
	h := flag.Int("h", 3, "NoC mesh height")
	withNet := flag.Bool("net", false, "install the network service")
	node := flag.Uint("node", 1, "datacenter-network node id (with -net)")
	manifestPath := flag.String("manifest", "", "JSON app manifest (object or array)")
	cycles := flag.Uint64("cycles", 5_000_000, "cycles to simulate")
	statsEvery := flag.Uint64("stats-every", 0, "print stats every N cycles (0 = only at end)")
	httpAddr := flag.String("http", "", "serve /stats, /metrics, /spans.json, /heatmap, ... on this address")
	seed := flag.Uint64("seed", 1, "simulation seed")
	spanEvery := flag.Int("span-every", 64, "sample one in N messages into the flight recorder (0 = off)")
	spanCap := flag.Int("span-cap", obs.DefaultSpanCap, "flight recorder ring capacity")
	windowEvery := flag.Uint64("window-every", 10_000, "windowed telemetry period in cycles (0 = off)")
	windowKeep := flag.Int("window-keep", obs.DefaultWindowKeep, "windowed telemetry snapshots retained")
	faultPlan := flag.String("fault-plan", "", "chaos-engine fault plan file (text or JSON, see internal/fault)")
	scenario := flag.String("scenario", "", "open-loop load scenario file (text or JSON, see internal/load)")
	scnRecord := flag.String("scenario-record", "", "write the scenario's client-visible recording to this file (single-board)")
	scnReplay := flag.String("scenario-replay", "", "replay arrivals from a recording instead of generating them (single-board)")
	detect := flag.Bool("detect", false, "enable the monitor watchdogs (heartbeat, credit-leak, protocol-violation)")
	fleet := flag.Int("fleet", 0, "boot a fleet of N boards instead of one (each board uses -board/-w/-h)")
	fleetWorkers := flag.Int("fleet-workers", 0, "goroutines ticking fleet boards (0 = GOMAXPROCS; bit-exact at any count)")
	fleetKill := flag.Int("fleet-kill", -1, "board to kill mid-run (with -fleet)")
	fleetKillAt := flag.Uint64("fleet-kill-at", 0, "cycle at which -fleet-kill strikes")
	flag.Parse()

	cfg := core.SystemConfig{
		Board: *board, Dims: noc.Dims{W: *w, H: *h}, Seed: *seed,
		WithNet: *withNet, NodeID: netsim.NodeID(*node),
		SpanSampleEvery: *spanEvery, SpanCap: *spanCap,
		WindowCycles: sim.Cycle(*windowEvery), WindowKeep: *windowKeep,
	}
	if *detect {
		cfg.Detect = monitor.DefaultDetect
	}
	if *faultPlan != "" {
		data, err := os.ReadFile(*faultPlan)
		if err != nil {
			log.Fatalf("apiaryd: %v", err)
		}
		plan, err := fault.ParsePlan(data)
		if err != nil {
			log.Fatalf("apiaryd: fault plan: %v", err)
		}
		cfg.FaultPlan = plan
		log.Printf("apiaryd: chaos engine armed: seed=%d events=%d rates=%d",
			plan.Seed, len(plan.Events), len(plan.Rates))
	}
	var scn *load.Scenario
	if *scenario != "" {
		data, err := os.ReadFile(*scenario)
		if err != nil {
			log.Fatalf("apiaryd: %v", err)
		}
		scn, err = load.ParseScenario(data)
		if err != nil {
			log.Fatalf("apiaryd: scenario: %v", err)
		}
		log.Printf("apiaryd: scenario %q: %d sessions, %d phases, %d cycles, seed=%d",
			scn.Name, scn.Sessions, len(scn.Phases), scn.Dur(), scn.Seed)
	}
	if *fleet > 0 || (scn != nil && scn.Fleet != nil) {
		if *scnRecord != "" || *scnReplay != "" {
			log.Fatalf("apiaryd: -scenario-record/-scenario-replay are single-board only")
		}
		runFleet(cfg, *fleet, *fleetWorkers, *manifestPath, sim.Cycle(*cycles),
			*fleetKill, sim.Cycle(*fleetKillAt), *httpAddr, sim.Cycle(*statsEvery), scn)
		return
	}

	var sys *core.System
	var br *load.BoardRun
	var err error
	if scn != nil {
		br, err = load.NewBoardRun(scn, cfg)
		if err != nil {
			log.Fatalf("apiaryd: scenario boot: %v", err)
		}
		sys = br.Sys
		if *scnReplay != "" {
			data, err := os.ReadFile(*scnReplay)
			if err != nil {
				log.Fatalf("apiaryd: %v", err)
			}
			rec, err := load.ParseRecording(data)
			if err != nil {
				log.Fatalf("apiaryd: replay: %v", err)
			}
			br.Gen.SetReplay(rec)
			log.Printf("apiaryd: replaying %d recorded arrivals", len(rec.Arrivals))
		}
	} else {
		sys, err = core.NewSystem(cfg)
	}
	if err != nil {
		log.Fatalf("apiaryd: boot: %v", err)
	}
	log.Printf("apiaryd: booted %s (%s, %d logic cells), %dx%d mesh, framework overhead %.1f%%",
		*board, sys.Board.Device.PartNumber, sys.Board.Device.LogicCells,
		*w, *h, sys.MonitorOverhead(64)*100)

	if *manifestPath != "" {
		data, err := os.ReadFile(*manifestPath)
		if err != nil {
			log.Fatalf("apiaryd: %v", err)
		}
		specs, err := manifest.Parse(data)
		if err != nil {
			log.Fatalf("apiaryd: %v", err)
		}
		for _, spec := range specs {
			app, err := sys.Kernel.LoadApp(spec)
			if err != nil {
				log.Fatalf("apiaryd: load %q: %v", spec.Name, err)
			}
			for _, p := range app.Placed {
				log.Printf("apiaryd: placed %s/%s on tile %d", spec.Name, p.Name, p.Tile)
			}
		}
	}

	var mu sync.Mutex // guards the engine and everything hanging off it
	if *httpAddr != "" {
		mux := boardMux(sys, br, &mu)
		go func() {
			log.Printf("apiaryd: serving stats on %s", *httpAddr)
			log.Fatal(http.ListenAndServe(*httpAddr, mux))
		}()
	}

	// Run in chunks so HTTP handlers get the lock regularly, shrinking the
	// chunk when the next -stats-every report would land inside it so each
	// interval logs exactly once. A scenario also clamps chunks to the next
	// phase boundary, so HTTP observers never see a torn phase: every
	// /scenario.json snapshot is taken with the phase counters either fully
	// before or fully after each boundary.
	const chunk = sim.Cycle(100_000)
	end := sim.Cycle(*cycles)
	nextLog := end + 1
	if *statsEvery > 0 {
		nextLog = sim.Cycle(*statsEvery)
	}
	for {
		mu.Lock()
		now := sys.Engine.Now()
		if now >= end || (br != nil && br.Done()) {
			mu.Unlock()
			break
		}
		step := chunk
		if remaining := end - now; remaining < step {
			step = remaining
		}
		if now < nextLog && nextLog-now < step {
			step = nextLog - now
		}
		if br != nil {
			if edge := br.Scn.NextBoundary(now); edge > now && edge-now < step {
				step = edge - now
			}
		}
		sys.Run(step)
		now = sys.Engine.Now()
		mu.Unlock()
		if now >= nextLog {
			mu.Lock()
			log.Printf("apiaryd: cycle %d (%.2f ms simulated)", now, sys.Engine.Micros(now)/1000)
			mu.Unlock()
			for nextLog <= now {
				nextLog += sim.Cycle(*statsEvery)
			}
		}
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("apiaryd: finished at cycle %d (%.2f ms simulated)\n",
		sys.Engine.Now(), sys.Engine.Micros(sys.Engine.Now())/1000)
	fmt.Print(sys.Stats.String())
	fmt.Print(sys.Tracer.Summary())
	if sys.Obs != nil {
		fmt.Print(sys.Obs.Summary())
	}
	if n := len(sys.Kernel.Faults()); n > 0 {
		fmt.Printf("faults: %d (see trace)\n", n)
	}
	if sys.Fault != nil || sys.Kernel.Quarantines() > 0 {
		injected := uint64(0)
		if sys.Fault != nil {
			injected = sys.Fault.Injected()
		}
		fmt.Printf("chaos: injected=%d quarantines=%d recoveries=%d still_quarantined=%v\n",
			injected, sys.Kernel.Quarantines(), sys.Kernel.Recoveries(),
			sys.Kernel.QuarantinedTiles())
	}
	if done, ab := sys.Kernel.MigrationsDone(), sys.Kernel.MigrationAborts(); done > 0 || ab > 0 {
		fmt.Printf("migrate: done=%d aborted=%d\n", done, ab)
	}
	shed := sys.Stats.Counter("shell.shed").Value()
	opens := sys.Stats.Counter("apps.breaker_opens").Value()
	if shed > 0 || opens > 0 || sys.Kernel.Failovers() > 0 {
		fmt.Printf("degrade: shed=%d failovers=%d breaker_opens=%d\n",
			shed, sys.Kernel.Failovers(), opens)
	}
	if dir := sys.Kernel.Directory(); len(dir) > 0 {
		writeServices(os.Stdout, sys)
	}
	if br != nil {
		printScenarioReport(br.Scn, br.Report(), br.Fingerprint())
		if *scnRecord != "" {
			f, err := os.Create(*scnRecord)
			if err != nil {
				log.Fatalf("apiaryd: record: %v", err)
			}
			if _, err := br.Gen.Recording().WriteTo(f); err != nil {
				log.Fatalf("apiaryd: record: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("apiaryd: record: %v", err)
			}
			log.Printf("apiaryd: recording written to %s", *scnRecord)
		}
	}
}

// printScenarioReport renders the per-phase goodput/latency table and the
// run's client-visible fingerprint — the value the CI scenario gate diffs
// against its committed golden.
func printScenarioReport(scn *load.Scenario, reps []load.PhaseReport, fp uint64) {
	fmt.Printf("scenario %q (%d sessions):\n", scn.Name, scn.Sessions)
	fmt.Printf("  %-12s %10s %12s %12s %8s %8s %8s %8s %8s %9s %9s\n",
		"phase", "dur", "offered_rpMc", "goodput_rpMc",
		"offered", "ok", "denied", "timeout", "shed", "p50cy", "p99cy")
	for _, pr := range reps {
		fmt.Printf("  %-12s %10d %12d %12d %8d %8d %8d %8d %8d %9.1f %9.1f\n",
			pr.Name, pr.Dur, pr.OfferedRpMc, pr.GoodputRpMc,
			pr.Offered, pr.OK, pr.Denied, pr.Timeout, pr.Shed, pr.P50, pr.P99)
	}
	fmt.Printf("scenario fingerprint: 0x%016x\n", fp)
}

// boardMux builds the single-board HTTP surface. Every handler holds mu,
// which the run loop holds while it advances the engine.
func boardMux(sys *core.System, br *load.BoardRun, mu *sync.Mutex) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(rw, "cycle %d\n%s", sys.Engine.Now(), sys.Stats.String())
	})
	mux.HandleFunc("/procs", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range sys.Kernel.Procs() {
			fmt.Fprintf(rw, "%-12s %-12s tile=%d ctx=%d state=%s\n",
				p.App, p.Accel, p.Tile, p.Ctx, sys.Kernel.Shell(p.Tile).State())
		}
	})
	mux.HandleFunc("/matrix", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprint(rw, sys.Tracer.MatrixString())
	})
	mux.HandleFunc("/trace.json", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		_ = sys.Tracer.ExportChrome(rw, float64(sys.Engine.ClockMHz()))
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WriteProm(rw, sys.Engine.Now(), sys.Engine.ClockMHz(),
			sys.Stats, sys.Windows, sys.Obs, healthDir(sys.Kernel))
	})
	mux.HandleFunc("/services", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		writeServices(rw, sys)
	})
	mux.HandleFunc("/spans.json", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		_ = obs.ExportChromeSpans(rw, sys.Obs.Entries(), float64(sys.Engine.ClockMHz()))
	})
	mux.HandleFunc("/events.json", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		_ = obs.WriteEventsJSON(rw, sys.Events.Events())
	})
	mux.HandleFunc("/heatmap", func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Query().Get("format") == "json" {
			rw.Header().Set("Content-Type", "application/json")
			_ = obs.WriteHeatmapJSON(rw, sys.Noc, sys.Windows.Latest(),
				sys.Kernel.QuarantinedTiles(), sys.Kernel.DegradedTiles())
			return
		}
		obs.WriteHeatmap(rw, sys.Noc, sys.Windows.Latest(),
			sys.Kernel.QuarantinedTiles(), sys.Kernel.DegradedTiles())
	})
	if br != nil {
		mux.HandleFunc("/scenario.json", func(rw http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			rw.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(rw).Encode(br.Status())
		})
	}
	return mux
}

// runFleet boots a -fleet N cluster and runs it. With a manifest, the
// orchestrator places each app on the least-loaded board; without one, it
// runs the demo workload — a replicated echo service spanning two boards
// with a resilient client on every remaining board. The board template
// carries the observability flags (-span-every, -window-every, ...) into
// every board, and -http serves the federated fleet surface: /metrics,
// /events.json, /trace.json (the stitched multi-board timeline) and
// /fleet.json (the dashboard payload behind apiaryctl fleet).
func runFleet(board core.SystemConfig, boards, workers int, manifestPath string,
	cycles sim.Cycle, kill int, killAt sim.Cycle, httpAddr string, statsEvery sim.Cycle,
	scn *load.Scenario) {
	fcfg := cluster.Config{
		Boards:  boards,
		Workers: workers,
		Seed:    board.Seed,
		Board:   board,
		Link:    netsim.LinkConfig{LatencyNs: 1000},
	}
	var fl *cluster.Fleet
	var fr *load.FleetRun
	var err error
	if scn != nil {
		// The scenario's fleet stanza sizes the fleet; its kill directives
		// replace the -fleet-kill flags; its chaos plan arms every board.
		fr, err = load.NewFleetRun(scn, fcfg)
		if err != nil {
			log.Fatalf("apiaryd: fleet scenario boot: %v", err)
		}
		fl = fr.Fl
		kill = -1
	} else {
		fl, err = cluster.New(fcfg)
		if err != nil {
			log.Fatalf("apiaryd: fleet boot: %v", err)
		}
	}
	log.Printf("apiaryd: fleet of %d boards, epoch (lookahead) = %d cycles", fl.Boards(), fl.Epoch())

	var clients []*apps.Requester
	if fr != nil {
		// Scenario mode deploys its own service + generators; manifest and
		// demo workloads stay out of the way.
	} else if manifestPath != "" {
		data, err := os.ReadFile(manifestPath)
		if err != nil {
			log.Fatalf("apiaryd: %v", err)
		}
		placed, err := fl.Orchestrator().PlaceManifest(data)
		if err != nil {
			log.Fatalf("apiaryd: fleet place: %v", err)
		}
		for _, p := range placed {
			log.Printf("apiaryd: placed app %q on board %d", p.App, p.Board)
		}
	} else {
		clients = fleetDemo(fl)
	}
	if kill >= 0 {
		if kill >= boards {
			log.Fatalf("apiaryd: -fleet-kill %d out of range (fleet of %d)", kill, boards)
		}
		fl.KillBoardAt(kill, killAt)
		log.Printf("apiaryd: board %d scheduled to die at cycle %d", kill, killAt)
	}

	// Chunked run under a mutex, exactly like single-board mode: handlers
	// only ever observe the fleet between Run calls, i.e. at epoch barriers,
	// where every aggregator read is race-free by the barrier's
	// happens-before edge.
	var mu sync.Mutex
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(rw http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			st := fl.Status(0, 0)
			fmt.Fprintf(rw, "cycle %d epochs %d relayed %d lost %d\n",
				st.Now, st.Epochs, st.Relayed, st.Lost)
			for _, b := range st.Boards {
				fmt.Fprintf(rw, "board %d dead=%v delivered=%d quar=%d events=%d\n",
					b.ID, b.Dead, b.Delivered, b.Quarantines, b.Events)
			}
		})
		mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
			fl.WriteProm(rw)
		})
		mux.HandleFunc("/events.json", func(rw http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			rw.Header().Set("Content-Type", "application/json")
			_ = fl.WriteEventsJSON(rw)
		})
		mux.HandleFunc("/trace.json", func(rw http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			rw.Header().Set("Content-Type", "application/json")
			_ = fl.WriteTraceJSON(rw)
		})
		mux.HandleFunc("/fleet.json", func(rw http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			rw.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(rw).Encode(fl.Status(128, 64))
		})
		if fr != nil {
			mux.HandleFunc("/scenario.json", func(rw http.ResponseWriter, _ *http.Request) {
				mu.Lock()
				defer mu.Unlock()
				rw.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(rw).Encode(fr.Status())
			})
		}
		go func() {
			log.Printf("apiaryd: serving fleet stats on %s", httpAddr)
			log.Fatal(http.ListenAndServe(httpAddr, mux))
		}()
	}

	chunk := 200 * fl.Epoch()
	nextLog := cycles + 1
	if statsEvery > 0 {
		nextLog = statsEvery
	}
	for fl.Now() < cycles {
		mu.Lock()
		if fr != nil && fr.Done() {
			mu.Unlock()
			break
		}
		step := chunk
		if remaining := cycles - fl.Now(); remaining < step {
			step = remaining
		}
		// Phase boundaries clamp the chunk exactly like single-board mode;
		// the fleet re-chunks the step into epochs internally, so both
		// alignments hold at once.
		if fr != nil {
			if now := fl.Now(); now < fr.Scn.Dur() {
				if edge := fr.Scn.NextBoundary(now); edge > now && edge-now < step {
					step = edge - now
				}
			}
		}
		fl.Run(step)
		now := fl.Now()
		mu.Unlock()
		if now >= nextLog {
			log.Printf("apiaryd: fleet cycle %d, epoch %d", now, fl.Aggregator().Epochs())
			for nextLog <= now {
				nextLog += statsEvery
			}
		}
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("apiaryd: fleet finished at cycle %d\n", fl.Now())
	fmt.Printf("fleet: relayed=%d lost=%d dropped_to_dead=%d failovers=%d rebinds=%d traced_hops=%d\n",
		fl.Relayed(), fl.LostFrames(), fl.DroppedToDead(),
		fl.Orchestrator().Failovers(), fl.Directory().Rebinds(), fl.TracedLinkFrames())
	for _, r := range fl.ServiceRollups() {
		fmt.Printf("service %q: served=%d rpcs=%d p50=%.0fcy p99=%.0fcy replicas=%d\n",
			r.Name, r.Served, r.RPCs, r.P50, r.P99, r.Replicas)
	}
	if evs := fl.MergedEvents(); len(evs) > 0 {
		fmt.Printf("decision log (%d events, last %d):\n", len(evs), min(8, len(evs)))
		for _, e := range evs[max(0, len(evs)-8):] {
			fmt.Printf("  cy=%-10d board=%-3d %-10s %s (%s)\n",
				e.Cycle, e.Board, e.Kind, e.Detail, e.Cause)
		}
	}
	for _, name := range fl.Directory().Names() {
		ep, _ := fl.Directory().Lookup(name)
		fmt.Printf("service %q: primary board %d (node %d flow %d), %d backends\n",
			name, ep.Board, ep.Addr.Node, ep.Addr.Flow, len(fl.Directory().Backends(name)))
	}
	for i := 0; i < fl.Boards(); i++ {
		b := fl.Board(i)
		state := "live"
		if b.Dead() {
			state = "dead"
		}
		fmt.Printf("board %d (%s): cycle %d, gw_out=%d gw_in=%d\n", i, state,
			b.Sys.Engine.Now(),
			b.Sys.Stats.Counter("netsim.gw_out").Value(),
			b.Sys.Stats.Counter("netsim.gw_in").Value())
	}
	for i, c := range clients {
		fmt.Printf("client %d: responses=%d errors=%d\n", i, c.Responses(), c.Errors())
	}
	if fr != nil {
		printScenarioReport(fr.Scn, fr.Report(), fr.Fingerprint())
	}
}

// fleetDemo deploys the default fleet workload: an echo service with two
// replicas on distinct boards and a retrying client on every other board.
func fleetDemo(fl *cluster.Fleet) []*apps.Requester {
	const (
		svc      = msg.ServiceID(100)
		proxySvc = msg.ServiceID(200)
		flow     = uint16(7)
	)
	replicas := 2
	if fl.Boards() < 3 {
		replicas = 1
	}
	eps, err := fl.Orchestrator().DeployService(cluster.ServiceDeployment{
		Name: "echo", Svc: svc, Flow: flow, Replicas: replicas,
		Spec: func(r int) core.AppSpec {
			return core.AppSpec{
				Name: fmt.Sprintf("echo-r%d", r),
				Accels: []core.AppAccel{{
					Name: "stage", Service: svc,
					New: func() accel.Accelerator {
						return apps.NewStage(apps.StageConfig{
							Name:    "echo",
							Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
						})
					},
				}},
			}
		},
	})
	if err != nil {
		log.Fatalf("apiaryd: fleet demo: %v", err)
	}
	hosts := map[int]bool{}
	for _, ep := range eps {
		log.Printf("apiaryd: echo replica on board %d (node %d flow %d)",
			ep.Board, ep.Addr.Node, ep.Addr.Flow)
		hosts[ep.Board] = true
	}
	var clients []*apps.Requester
	for i := 0; i < fl.Boards(); i++ {
		if hosts[i] {
			continue
		}
		if err := fl.Orchestrator().ConnectClient(i, proxySvc, "echo"); err != nil {
			log.Fatalf("apiaryd: fleet demo: %v", err)
		}
		req := apps.NewRequester(proxySvc, 1<<30, 256,
			func(int) []byte { return []byte("fleet-demo") }, nil)
		req.RetryNacks = true
		req.RetryLimit = 10
		req.TimeoutCycles = 6000
		req.BackoffBase = 256
		if _, err := fl.Board(i).Sys.Kernel.LoadApp(core.AppSpec{
			Name: "client",
			Accels: []core.AppAccel{{
				Name: "req", Connect: []msg.ServiceID{proxySvc},
				New: func() accel.Accelerator { return req },
			}},
		}); err != nil {
			log.Fatalf("apiaryd: fleet demo: %v", err)
		}
		clients = append(clients, req)
	}
	return clients
}

// healthDir flattens the kernel's service directory into the obs export rows.
func healthDir(k *core.Kernel) []obs.ServiceHealth {
	var out []obs.ServiceHealth
	for _, e := range k.Directory() {
		for _, m := range e.Members {
			out = append(out, obs.ServiceHealth{
				Group: uint16(e.Svc), Svc: uint16(m.Svc), Tile: uint16(m.Tile),
				Health: uint8(m.Health), State: m.Health.String(), Primary: m.Primary,
			})
		}
	}
	return out
}

// writeServices renders the replica-group service directory as text.
func writeServices(w io.Writer, sys *core.System) {
	dir := sys.Kernel.Directory()
	if len(dir) == 0 {
		fmt.Fprintln(w, "no replica groups registered")
		return
	}
	for _, e := range dir {
		fmt.Fprintf(w, "group %d (app %s):\n", e.Svc, e.App)
		for _, m := range e.Members {
			mark := " "
			if m.Primary {
				mark = "*"
			}
			fmt.Fprintf(w, "  %s svc %-5d tile %-3d %s\n", mark, m.Svc, m.Tile, m.Health)
		}
	}
	fmt.Fprintf(w, "failovers=%d shed=%d breaker_opens=%d\n",
		sys.Kernel.Failovers(), sys.Stats.Counter("shell.shed").Value(),
		sys.Stats.Counter("apps.breaker_opens").Value())
}
