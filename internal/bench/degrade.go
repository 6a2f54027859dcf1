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

// E17 timeline constants (failover half): the chaos engine hangs the
// primary replica at hangAt; the heartbeat watchdog trips inside the hang,
// the kernel quarantines the tile and re-binds the group to the standby.
const (
	e17HangAt  sim.Cycle = 150_000
	e17HangDur sim.Cycle = 120_000
)

// e17Svc is the slow pipeline's occupancy per request in the overload half.
const e17Svc sim.Cycle = 400

// overloadRun drives nClients closed-loop clients (16 outstanding each,
// no send gap) at one slow service and reports the admitted latency
// distribution plus shed/served totals. budget is the per-request queueing
// deadline stamped into the message header (0 = naive, no shedding). The
// first 100k cycles warm up the shell's service-gap estimator and are
// excluded from the latency histogram.
func overloadRun(nClients, perClient int, budget sim.Cycle) (lat *sim.Histogram, served, errs int, shed uint64) {
	const svcSlow = msg.FirstUserService
	sys, err := core.NewSystem(core.SystemConfig{Dims: noc.Dims{W: 3, H: 3}})
	if err != nil {
		panic(err)
	}
	h := sys.Stats.Histogram("adm.lat")
	spec := core.AppSpec{Name: "overload", Accels: []core.AppAccel{
		{Name: "slow", Service: svcSlow, QueueCap: 64,
			New: func() accel.Accelerator {
				return apps.NewStage(apps.StageConfig{
					Name: "slow", BaseCycles: e17Svc,
					Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
				})
			}},
	}}
	clients := make([]*apps.Requester, nClients)
	for i := range clients {
		c := apps.NewRequester(svcSlow, perClient, 0,
			func(int) []byte { return make([]byte, 64) }, h)
		c.MaxInFlight = 16
		c.Budget = budget
		// Shed requests are retried with backoff: the client self-regulates
		// to the service's capacity instead of abandoning work, so "Shed"
		// counts deferrals, not losses.
		c.RetryNacks = true
		c.RetryLimit = 50
		c.BackoffBase = 256
		c.BackoffMax = 8_192
		clients[i] = c
		spec.Accels = append(spec.Accels, core.AppAccel{
			Name: fmt.Sprintf("c%d", i), Connect: []msg.ServiceID{svcSlow},
			New: func() accel.Accelerator { return c },
		})
	}
	if _, err := sys.Kernel.LoadApp(spec); err != nil {
		panic(err)
	}
	sys.Run(100_000)
	h.Reset()
	sys.RunUntil(func() bool {
		for _, c := range clients {
			if !c.Done() {
				return false
			}
		}
		return true
	}, 20_000_000)
	for _, c := range clients {
		served += c.Responses()
		errs += c.Errors()
	}
	return h, served, errs, sys.Stats.Counter("shell.shed").Value()
}

// E17Degrade quantifies graceful degradation on both axes of this PR.
//
// Overload: a slow service (400 cy/request) behind deadline-aware admission
// control. One closed-loop client is the capacity baseline; doubling the
// client count doubles offered load. With a queueing budget in the request
// header the shell sheds what it cannot serve in time and the admitted p99
// stays at the baseline; without it every request is admitted and the whole
// queue's wait lands in the tail.
//
// Failover: two echo replicas behind a health-aware group. The chaos engine
// hangs the primary mid-run; the watchdog verdict quarantines it, the
// kernel re-binds the group to the standby and re-mints the endpoint caps,
// and the client — retrying transient NACKs with backoff — rides through
// with zero lost requests.
func E17Degrade() Result {
	r := Result{
		ID: "E17", Title: "Graceful degradation: deadline load shedding and health-aware failover",
		Header: []string{"Phase", "Served", "Errs", "Shed", "P50cy", "P99cy", "Goodput/kcy"},
	}

	// --- Overload half -----------------------------------------------------
	const perClient = 1500
	// Just above the baseline closed loop's own queue wait (15 waiting x
	// ~410 cy estimated gap): the uncontended client is never shed, while
	// overload traffic is pinned to the same queue depth the baseline runs
	// at — so the admitted tail cannot exceed the baseline tail.
	const deadline = 6_300
	type orow struct {
		name         string
		clients      int
		budget       sim.Cycle
		lat          *sim.Histogram
		served, errs int
		shed         uint64
	}
	rows := []orow{
		{name: "baseline 1x", clients: 1, budget: deadline},
		{name: "overload 2x shed", clients: 2, budget: deadline},
		{name: "overload 2x naive", clients: 2, budget: 0},
	}
	for i := range rows {
		o := &rows[i]
		o.lat, o.served, o.errs, o.shed = overloadRun(o.clients, perClient, o.budget)
		r.AddRow(o.name, d(o.served), d(o.errs), u(o.shed),
			f1(o.lat.Median()), f1(o.lat.P99()), "")
	}
	r.Note("deadline=%d cy on a %d cy service: shed keeps the admitted queue no deeper than the uncontended closed loop, so admitted p99 holds at baseline while the naive queue's wait lands in the tail",
		deadline, e17Svc)

	// --- Failover half -----------------------------------------------------
	const (
		svcRepA  = msg.FirstUserService
		svcRepB  = msg.FirstUserService + 1
		svcGroup = msg.FirstUserService + 10
		total    = 4000
		gap      = 300
	)
	plan := &fault.Plan{
		Seed: 42,
		Events: []fault.Event{
			{Kind: fault.KindHang, At: e17HangAt, Tile: 2, Dur: e17HangDur},
		},
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Dims: noc.Dims{W: 4, H: 4}, Detect: monitor.DefaultDetect, FaultPlan: plan,
	})
	if err != nil {
		panic(err)
	}
	client := apps.NewRequester(svcGroup, total, gap,
		func(int) []byte { return make([]byte, 64) }, nil)
	client.RetryLimit = 6
	client.RetryNacks = true
	client.TimeoutCycles = 20_000
	client.BackoffBase = 512
	client.BackoffMax = 32_768
	if _, err := sys.Kernel.LoadApp(core.AppSpec{
		Name: "ha", Restart: true,
		Accels: []core.AppAccel{
			{Name: "repa", Service: svcRepA,
				New: func() accel.Accelerator { return echoStage() }},
			{Name: "repb", Service: svcRepB,
				New: func() accel.Accelerator { return echoStage() }},
			{Name: "client", New: func() accel.Accelerator { return client },
				Connect: []msg.ServiceID{svcGroup}},
		},
		Groups: []core.ReplicaGroupSpec{{Service: svcGroup,
			Members: []msg.ServiceID{svcRepA, svcRepB}}},
	}); err != nil {
		panic(err)
	}

	goodput := func(dResp int, dCy sim.Cycle) float64 {
		if dCy == 0 {
			return 0
		}
		return float64(dResp) / float64(dCy) * 1000
	}

	// Steady state up to the injected hang.
	sys.Run(e17HangAt)
	preResp := client.Responses()
	preRate := goodput(preResp, e17HangAt)
	r.AddRow("pre-fault", d(preResp), d(client.Errors()), "0", "", "", f2(preRate))

	// Fault live: watchdog trips, tile fenced, group re-binds to the standby.
	sys.RunUntil(func() bool { return sys.Kernel.Quarantines() >= 1 }, 2_000_000)
	quarAt := sys.Engine.Now()
	quarResp := client.Responses()

	// Quarantine window: primary fenced, standby serving, PR reload pending.
	sys.RunUntil(func() bool { return sys.Kernel.Recoveries() >= 1 }, 2_000_000)
	recovAt := sys.Engine.Now()
	winResp := client.Responses() - quarResp
	winRate := goodput(winResp, recovAt-quarAt)
	r.AddRow("quarantine window", d(winResp), d(client.Errors()), "0", "", "",
		f2(winRate))

	// Drain the workload: every request must complete despite the failover.
	sys.RunUntil(client.Done, 5_000_000)
	r.AddRow("post-recovery", d(client.Responses()), d(client.Errors()), "0", "", "",
		f2(goodput(client.Responses(), sys.Engine.Now())))

	primary, _ := sys.Kernel.GroupPrimary(svcGroup)
	r.AddRow("timeline", "", "", "", "", "", "")
	r.AddRow("  hang injected (cycle)", u(uint64(e17HangAt)), "", "", "", "", "")
	r.AddRow("  quarantined (cycle)", u(uint64(quarAt)), "", "", "", "", "")
	r.AddRow("  re-admitted (cycle)", u(uint64(recovAt)), "", "", "", "", "")
	r.AddRow("  failovers", u(sys.Kernel.Failovers()), "", "", "", "", "")
	r.AddRow("  primary after failover", fmt.Sprintf("svc %d", primary), "", "", "", "", "")
	r.AddRow("  client retransmits", d(client.Retransmits()), "", "", "", "", "")
	r.Note("failover: goodput in the quarantine window %.2f/kcy vs %.2f/kcy steady state (%.0f%%); zero requests lost — %d/%d answered, %d errors",
		winRate, preRate, winRate/preRate*100, client.Responses(), total, client.Errors())
	r.Note("deterministic: same seed, same plan => bit-identical run every time (see internal/core failover tests)")
	return r
}
