package bench

import (
	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/netsim"
	"apiary/internal/noc"
)

// e20Run boots the E19 fleet topology (4 boards, echo service with 2
// replicas, remote client) at the given span sampling rate, runs the client
// to completion, and returns the fleet plus the client for inspection.
func e20Run(spanEvery, total int) (*cluster.Fleet, *clientOutcome, error) {
	fl, err := cluster.New(cluster.Config{
		Boards: 4,
		Seed:   19,
		Board: core.SystemConfig{
			Dims:            noc.Dims{W: 3, H: 3},
			ManagedMemBytes: 1 << 20,
			SpanSampleEvery: spanEvery,
		},
		Link: netsim.LinkConfig{LatencyNs: 1000},
	})
	if err != nil {
		return nil, nil, err
	}
	eps, err := fl.Orchestrator().DeployService(cluster.ServiceDeployment{
		Name: "echo", Svc: e19Svc, Flow: e19Flow, Replicas: 2,
		Spec: e19ReplicaSpec,
	})
	if err != nil {
		return nil, nil, err
	}
	req := e19Client(total)
	if err := e19Attach(fl, eps, req); err != nil {
		return nil, nil, err
	}
	fl.RunUntil(req.Done, 800_000)
	return fl, &clientOutcome{ok: req.Responses(), errs: req.Errors()}, nil
}

type clientOutcome struct{ ok, errs int }

// E20FleetObs measures fleet-wide observability as pure observation: the
// same cross-board workload runs with tracing off, at the apiaryd default
// (1-in-64), and with every packet traced. All simulated quantities —
// completion cycle, cross-board frames, service latency quantiles — must be
// bit-identical across rates; only the recorded telemetry (spans, traced
// link hops) grows. Every column is simulated, so the rows sit under the
// cross-host -compare trajectory gate; the wall-clock tax lives in the
// BenchmarkFleet16 / BenchmarkFleet16Sampled A/B pair.
func E20FleetObs() Result {
	r := Result{
		ID:    "e20",
		Title: "Fleet observability: distributed tracing as pure observation",
		Header: []string{"Sampling", "OK", "Errs", "CompleteCy", "XBoardFrames",
			"TracedHops", "Spans", "Events", "echo-p50cy", "echo-p99cy"},
	}
	const total = 24
	type rate struct {
		label string
		every int
	}
	var baseCy, baseFrames uint64
	var baseP50, baseP99 float64
	for i, cfg := range []rate{{"off", 0}, {"1-in-64", 64}, {"every", 1}} {
		fl, cl, err := e20Run(cfg.every, total)
		if err != nil {
			r.Note("fleet boot failed at %s: %v", cfg.label, err)
			return r
		}
		var spans uint64
		for b := 0; b < fl.Boards(); b++ {
			spans += fl.Board(b).Sys.Obs.Total()
		}
		var p50, p99 float64
		for _, sr := range fl.ServiceRollups() {
			if sr.Name == "echo" {
				p50, p99 = sr.P50, sr.P99
			}
		}
		events := uint64(len(fl.MergedEvents()))
		cy, frames := uint64(fl.Now()), fl.Relayed()
		r.AddRow(cfg.label, d(cl.ok), d(cl.errs), u(cy), u(frames),
			u(fl.TracedLinkFrames()), u(spans), u(events), f1(p50), f1(p99))
		if i == 0 {
			baseCy, baseFrames, baseP50, baseP99 = cy, frames, p50, p99
		} else if cy != baseCy || frames != baseFrames || p50 != baseP50 || p99 != baseP99 {
			r.Note("DETERMINISM VIOLATION at %s: simulated results differ from tracing-off run", cfg.label)
		}
	}
	r.Note("trace contexts ride sideband on frames: wire bytes and timing are identical at every rate")
	r.Note("wall-clock tax of 1-in-64 sampling: see BenchmarkFleet16 (sampled) vs BenchmarkFleet16Unsampled")
	return r
}
