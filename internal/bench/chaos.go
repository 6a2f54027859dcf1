package bench

import (
	"fmt"

	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/core"
	"apiary/internal/fault"
	"apiary/internal/monitor"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// E16 timeline constants: the chaos engine hangs the victim server at
// hangAt for hangDur cycles; the heartbeat watchdog must trip while the
// hang is live, and the hang must end before the PR-delayed recovery so the
// re-admitted tile is actually serving.
const (
	e16HangAt  sim.Cycle = 200_000
	e16HangDur sim.Cycle = 150_000
)

// E16BlastRadius runs the full chaos loop on one board: a seed-driven fault
// plan hangs a victim service mid-run; the monitor heartbeat watchdog
// fail-stops the tile; the kernel quarantines it (drain, endpoint cap
// revocation, region marked for reload) and re-admits it after partial
// reconfiguration. The table quantifies the blast radius: healthy apps'
// tail latency through all three phases, the victim's clients retreating
// with backoff and resuming after recovery.
func E16BlastRadius() Result {
	r := Result{
		ID: "E16", Title: "Blast radius of a contained fault: chaos hang, quarantine, recovery",
		Header: []string{"Phase", "HealthyP50", "HealthyP99", "HealthyResp", "VictimResp", "VictimErrs", "Fenced"},
	}
	const (
		svcVictim   = msg.FirstUserService
		svcHealthyA = msg.FirstUserService + 1
		svcHealthyB = msg.FirstUserService + 2
	)
	plan := &fault.Plan{
		Seed: 42,
		Events: []fault.Event{
			{Kind: fault.KindHang, At: e16HangAt, Tile: 2, Dur: e16HangDur},
		},
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Dims:      noc.Dims{W: 4, H: 4},
		Detect:    monitor.DefaultDetect,
		FaultPlan: plan,
	})
	if err != nil {
		panic(err)
	}

	// Victim app first so first-fit puts its server on tile 2 (the planned
	// hang target). Its client retries timed-out requests and backs off
	// exponentially while the service is fenced.
	vClient := apps.NewRequester(svcVictim, 4000, 500,
		func(int) []byte { return make([]byte, 128) }, nil)
	vClient.RetryLimit = 2
	vClient.BackoffBase = 1_000
	vClient.BackoffMax = 64_000
	if _, err := sys.Kernel.LoadApp(core.AppSpec{
		Name:    "victimapp",
		Restart: true,
		Accels: []core.AppAccel{
			{Name: "s", New: func() accel.Accelerator { return echoStage() }, Service: svcVictim},
			{Name: "c", New: func() accel.Accelerator { return vClient }, Connect: []msg.ServiceID{svcVictim}},
		},
	}); err != nil {
		panic(err)
	}
	// Two unrelated apps sharing one latency histogram: their traffic is the
	// blast-radius probe.
	hLat := sys.Stats.Histogram("healthy.lat")
	mkHealthy := func(name string, svc msg.ServiceID) *apps.Requester {
		c := apps.NewRequester(svc, 8000, 300,
			func(int) []byte { return make([]byte, 128) }, hLat)
		if _, err := sys.Kernel.LoadApp(core.AppSpec{
			Name: name,
			Accels: []core.AppAccel{
				{Name: "s", New: func() accel.Accelerator { return echoStage() }, Service: svc},
				{Name: "c", New: func() accel.Accelerator { return c }, Connect: []msg.ServiceID{svc}},
			},
		}); err != nil {
			panic(err)
		}
		return c
	}
	hA := mkHealthy("healthya", svcHealthyA)
	hB := mkHealthy("healthyb", svcHealthyB)
	healthyResp := func() int { return hA.Responses() + hB.Responses() }

	row := func(phase string) {
		r.AddRow(phase, f1(hLat.Median()), f1(hLat.P99()),
			d(healthyResp()), d(vClient.Responses()), d(vClient.Errors()),
			d(len(sys.Kernel.QuarantinedTiles())))
	}

	// Phase 1 — pre-fault baseline: everything up to the injected hang.
	sys.Run(e16HangAt)
	preP99 := hLat.P99()
	row("pre-fault")
	hLat.Reset()

	// Phase 2 — fault live: hang injected, watchdog trips, tile fenced.
	var faultAt, quarAt sim.Cycle
	sys.RunUntil(func() bool {
		if len(sys.Kernel.Faults()) > 0 && faultAt == 0 {
			faultAt = sys.Engine.Now()
		}
		return sys.Kernel.Quarantines() >= 1
	}, 2_000_000)
	quarAt = sys.Engine.Now()
	victimRespAtQuar := vClient.Responses()
	row("quarantined")
	duringP99 := hLat.P99()
	hLat.Reset()

	// Phase 3 — recovery: PR reload completes and the tile is re-admitted.
	sys.RunUntil(func() bool { return sys.Kernel.Recoveries() >= 1 }, 2_000_000)
	recovAt := sys.Engine.Now()
	// Let the recovered service prove it is serving again.
	sys.RunUntil(func() bool {
		return vClient.Responses() >= victimRespAtQuar+20
	}, 5_000_000)
	row("post-recovery")
	postP99 := hLat.P99()

	degrade := 0.0
	if preP99 > 0 {
		degrade = (duringP99 - preP99) / preP99 * 100
	}
	r.AddRow("timeline", "", "", "", "", "", "")
	r.AddRow("  hang injected (cycle)", u(uint64(e16HangAt)), "", "", "", "", "")
	r.AddRow("  watchdog fault (cycle)", u(uint64(faultAt)), "", "", "", "", "")
	r.AddRow("  quarantined (cycle)", u(uint64(quarAt)), "", "", "", "", "")
	r.AddRow("  re-admitted (cycle)", u(uint64(recovAt)), "", "", "", "", "")
	r.AddRow("  faults injected", u(sys.Fault.Injected()), "", "", "", "", "")
	r.AddRow("  victim retransmits", d(vClient.Retransmits()), "", "", "", "", "")
	r.AddRow("  healthy p99 delta during fault", fmt.Sprintf("%+.1f%%", degrade), "", "", "", "", "")
	r.Note("healthy p99 pre=%.1f during=%.1f post=%.1f cycles: the fenced tile's fault never leaves its tile — neighbours see noise, not an outage", preP99, duringP99, postP99)
	r.Note("deterministic: same seed, same plan => bit-identical run every time (see internal/fault chaos tests)")
	return r
}
