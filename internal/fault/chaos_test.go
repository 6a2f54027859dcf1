package fault_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"apiary/internal/accel"
	"apiary/internal/cap"
	"apiary/internal/fault"
	"apiary/internal/monitor"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
	"apiary/internal/trace"
)

// chaosApp is a tile-local request/reply workload (modeled on the monitor
// package's differential harness): it requests a service on another tile,
// echoes requests it receives, and keeps a purely tile-local log.
type chaosApp struct {
	id     int
	target msg.ServiceID
	gap    sim.Cycle
	total  int

	sent    int
	nextAt  sim.Cycle
	replies int
	nacks   int
	echoed  int
	log     []string
}

func (a *chaosApp) Name() string  { return fmt.Sprintf("chaosapp%d", a.id) }
func (a *chaosApp) Contexts() int { return 1 }
func (a *chaosApp) Reset()        {}

func (a *chaosApp) Tick(p accel.Port) {
	now := p.Now()
	for i := 0; i < 4; i++ {
		m, ok := p.Recv()
		if !ok {
			break
		}
		switch m.Type {
		case msg.TRequest:
			a.echoed++
			p.Send(m.Reply(msg.TReply, m.Payload))
		case msg.TReply:
			a.replies++
			a.log = append(a.log, fmt.Sprintf("t%d reply seq=%d at=%d", a.id, m.Seq, now))
		case msg.TError:
			a.nacks++
			a.log = append(a.log, fmt.Sprintf("t%d nack seq=%d at=%d", a.id, m.Seq, now))
		}
	}
	if a.sent < a.total && now >= a.nextAt {
		code := p.Send(&msg.Message{
			Type: msg.TRequest, DstSvc: a.target, Seq: uint32(a.sent),
			Payload: []byte{byte(a.id), byte(a.sent)},
		})
		if code == msg.EOK {
			a.sent++
			a.nextAt = now + a.gap
		}
	}
}

// harnessTarget implements fault.Target over hand-assembled shells and
// monitors, the way core.System implements it over the kernel tile table.
type harnessTarget struct {
	shells []*accel.Shell
	mons   []*monitor.Monitor
}

func (h *harnessTarget) Hang(t msg.TileID, until sim.Cycle) { h.shells[t].SetHang(until) }
func (h *harnessTarget) Babble(t msg.TileID, until sim.Cycle, svc msg.ServiceID) {
	h.shells[t].SetBabble(until, svc)
}
func (h *harnessTarget) WildWrite(t msg.TileID, count int) {
	for i := 0; i < count; i++ {
		_ = h.mons[t].InjectWildWrite()
	}
}
func (h *harnessTarget) FalsePositive(t msg.TileID) {
	h.mons[t].ForceFault(0, accel.FaultSpurious)
}

// chaosSnapshot is the determinism witness for an injected run.
type chaosSnapshot struct {
	Counters  map[string]uint64
	Traced    uint64
	Events    []trace.Event
	AppLogs   []string
	Replies   []int
	Nacks     []int
	Echoed    []int
	States    []string
	QuiesceAt sim.Cycle
}

// chaosDetect is an aggressive watchdog configuration so a 30k-cycle run
// exercises every detector.
var chaosDetect = monitor.Detect{
	HeartbeatCycles: 2_000,
	ViolationLimit:  2,
	LeakLimit:       8,
	LeakAgeCycles:   4_000,
}

// runChaos assembles a 4x4 mesh (monitor + shell + tile-local app per tile),
// arms the plan, runs a fixed horizon, then requires the network to drain
// and the credit invariant to hold.
func runChaos(t *testing.T, plan *fault.Plan) chaosSnapshot {
	t.Helper()
	const tiles = 16
	e := sim.NewEngine(7)
	st := sim.NewStats()
	tracer := trace.New(1 << 16)
	net := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 4, H: 4}})
	checker := cap.NewChecker()

	svc := func(i int) msg.ServiceID { return msg.FirstUserService + msg.ServiceID(i) }
	target := &harnessTarget{
		shells: make([]*accel.Shell, tiles),
		mons:   make([]*monitor.Monitor, tiles),
	}
	apps := make([]*chaosApp, tiles)
	for i := 0; i < tiles; i++ {
		apps[i] = &chaosApp{
			id: i, target: svc((i + 5) % tiles),
			gap: sim.Cycle(100 + 13*i), total: 60,
		}
		shell := accel.NewShell(apps[i], st)
		target.shells[i] = shell
		target.mons[i] = monitor.New(monitor.Config{
			Tile: msg.TileID(i), Kernel: 0, EnforceCaps: true, Detect: chaosDetect,
		}, e, net.NI(msg.TileID(i)), shell, checker, tracer, st)
		e.Register(shell)
	}
	for i := 0; i < tiles; i++ {
		for j := 0; j < tiles; j++ {
			target.mons[i].BindName(svc(j), msg.TileID(j))
		}
		obj := uint32(svc((i + 5) % tiles))
		target.mons[i].Table().Install(cap.Capability{
			Kind: cap.KindEndpoint, Rights: cap.RSend,
			Object: obj, Gen: checker.Gen(cap.KindEndpoint, obj),
		})
	}

	inj := fault.NewInjector(plan, e, net, target, st)
	if err := inj.Arm(); err != nil {
		t.Fatalf("arm: %v", err)
	}

	e.Run(30_000)
	// Every fault in the plans below expires inside the horizon; the mesh
	// must still drain, fail-stopped tiles and all.
	if !e.RunUntilEvery(net.Quiescent, 50_000, 16) {
		t.Fatalf("network never quiesced after chaos (inflight=%d)", net.InFlight())
	}
	if v := net.CreditInvariantViolation(); v != "" {
		t.Fatalf("credit invariant violated after chaos: %s", v)
	}

	snap := chaosSnapshot{Counters: make(map[string]uint64), QuiesceAt: e.Now()}
	for _, c := range st.Counters() {
		snap.Counters[c.Name] = c.Value()
	}
	snap.Traced = tracer.Total()
	snap.Events = tracer.Events()
	for i, a := range apps {
		snap.AppLogs = append(snap.AppLogs, a.log...)
		snap.Replies = append(snap.Replies, a.replies)
		snap.Nacks = append(snap.Nacks, a.nacks)
		snap.Echoed = append(snap.Echoed, a.echoed)
		snap.States = append(snap.States, target.shells[i].State().String())
	}
	return snap
}

// fullPlan exercises every fault kind: accelerator hang (heartbeat), babble
// and wild writes (protocol violations), a spurious monitor trip, a stalled
// link, a stuck VC, and a corrupted message — plus one probabilistic source.
func fullPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 99,
		Events: []fault.Event{
			{Kind: fault.KindLinkStall, At: 1_000, Tile: 10, Port: noc.East, Dur: 1_500},
			{Kind: fault.KindStuckVC, At: 1_500, Tile: 12, Port: noc.North, VC: 1, Dur: 1_000},
			{Kind: fault.KindHang, At: 2_000, Tile: 5, Dur: 4_000},
			{Kind: fault.KindLinkFlip, At: 2_500, Tile: 3, Port: noc.West},
			{Kind: fault.KindBabble, At: 3_000, Tile: 6, Dur: 200},
			{Kind: fault.KindWildWrite, At: 4_000, Tile: 7, Count: 3},
			{Kind: fault.KindFalsePos, At: 5_000, Tile: 9},
		},
		Rates: []fault.Rate{
			{Event: fault.Event{Kind: fault.KindWildWrite, Tile: 4, Count: 1}, MeanEvery: 6_000},
		},
	}
}

// TestFaultDifferential proves the chaos engine is deterministic: two runs
// of the same injected configuration are bit-exact — counters, trace ring,
// per-tile logs, shell states, quiesce cycle.
func TestFaultDifferential(t *testing.T) {
	base := runChaos(t, fullPlan())
	if base.Counters["fault.injected"] < 7 {
		t.Fatalf("plan under-injected: %d activations", base.Counters["fault.injected"])
	}
	if base.Counters["mon.faults"] == 0 {
		t.Fatal("no detector fired — the plan exercised nothing")
	}
	if base.Counters["noc.stall_fault"] == 0 {
		t.Fatal("link stall never blocked a flit")
	}
	stopped := 0
	for _, s := range base.States {
		if s != "running" && s != "Running" {
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatalf("no tile fail-stopped: states=%v", base.States)
	}
	diffSnapshots(t, base, runChaos(t, fullPlan()))
}

func diffSnapshots(t *testing.T, base, got chaosSnapshot) {
	t.Helper()
	if !reflect.DeepEqual(got.Counters, base.Counters) {
		for k, v := range base.Counters {
			if got.Counters[k] != v {
				t.Errorf("counter %s = %d, want %d", k, got.Counters[k], v)
			}
		}
		for k, v := range got.Counters {
			if _, ok := base.Counters[k]; !ok {
				t.Errorf("extra counter %s = %d", k, v)
			}
		}
	}
	if got.Traced != base.Traced {
		t.Errorf("traced events = %d, want %d", got.Traced, base.Traced)
	}
	if !reflect.DeepEqual(got.Events, base.Events) {
		t.Error("trace ring contents differ")
	}
	if !reflect.DeepEqual(got.AppLogs, base.AppLogs) {
		t.Error("application logs differ")
	}
	if !reflect.DeepEqual(got.Replies, base.Replies) || !reflect.DeepEqual(got.Nacks, base.Nacks) ||
		!reflect.DeepEqual(got.Echoed, base.Echoed) {
		t.Errorf("per-tile traffic differs: r=%v n=%v e=%v want r=%v n=%v e=%v",
			got.Replies, got.Nacks, got.Echoed, base.Replies, base.Nacks, base.Echoed)
	}
	if !reflect.DeepEqual(got.States, base.States) {
		t.Errorf("shell states differ: %v want %v", got.States, base.States)
	}
	if got.QuiesceAt != base.QuiesceAt {
		t.Errorf("quiesce cycle = %d, want %d", got.QuiesceAt, base.QuiesceAt)
	}
}

// TestFaultHealthyTilesUnaffected pins the blast radius at the message
// level: tiles whose service, client and route share nothing with the
// fail-stopped tile deliver exactly the same message log as a fault-free
// run.
func TestFaultHealthyTilesUnaffected(t *testing.T) {
	// Only a spurious trip on tile 9: its clients (tile 4 targets svc 9)
	// see NACKs; everyone else must be untouched.
	plan := &fault.Plan{
		Seed:   1,
		Events: []fault.Event{{Kind: fault.KindFalsePos, At: 3_000, Tile: 9}},
	}
	clean := runChaos(t, &fault.Plan{Seed: 1})
	faulted := runChaos(t, plan)

	// Repeated injected runs must agree with each other exactly.
	diffSnapshots(t, faulted, runChaos(t, plan))

	// Healthy-tile blast radius vs the clean run: tile 9 serves svc 9
	// (client: tile 4) and runs the client of svc 14. Those tiles' traffic
	// may differ; every other tile must deliver the exact same message set
	// — same replies, same NACK-free history, same seq order. Timestamps
	// are excluded: fault-report and NACK flits share routers with healthy
	// traffic, so flit-level arbitration may shift by a cycle; the
	// containment claim is that no healthy message is lost, duplicated or
	// reordered.
	affected := map[int]bool{9: true, 4: true, 14: true}
	for i := 0; i < 16; i++ {
		if affected[i] {
			continue
		}
		want := tileMsgs(clean.AppLogs, i)
		got := tileMsgs(faulted.AppLogs, i)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("tile %d message set changed by an unrelated fault:\n got %v\nwant %v", i, got, want)
		}
		if clean.Replies[i] != faulted.Replies[i] || clean.Echoed[i] != faulted.Echoed[i] {
			t.Errorf("tile %d traffic changed: replies %d->%d echoed %d->%d", i,
				clean.Replies[i], faulted.Replies[i], clean.Echoed[i], faulted.Echoed[i])
		}
		if clean.Nacks[i] != faulted.Nacks[i] {
			t.Errorf("tile %d saw %d NACKs (clean run: %d)", i, faulted.Nacks[i], clean.Nacks[i])
		}
	}
}

// tileMsgs filters one tile's log lines and strips the arrival cycle,
// leaving the ordered (type, seq) message history.
func tileMsgs(logs []string, tile int) []string {
	prefix := fmt.Sprintf("t%d ", tile)
	var out []string
	for _, l := range logs {
		if strings.HasPrefix(l, prefix) {
			if at := strings.LastIndex(l, " at="); at > 0 {
				l = l[:at]
			}
			out = append(out, l)
		}
	}
	return out
}

// TestFaultSoak drives randomized plans (deterministically generated from
// small seeds) twice each and requires agreement, quiescence and
// credit-invariant health every time.
func TestFaultSoak(t *testing.T) {
	for _, seed := range []uint64{2, 3, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := randomPlan(seed)
			diffSnapshots(t, runChaos(t, plan), runChaos(t, plan))
		})
	}
}

// randomPlan builds a valid plan from a seed: every kind is drawable, all
// faults expire well inside the 30k-cycle horizon.
func randomPlan(seed uint64) *fault.Plan {
	rng := sim.NewRNG(seed)
	kinds := []fault.Kind{
		fault.KindHang, fault.KindWildWrite, fault.KindBabble,
		fault.KindLinkStall, fault.KindLinkFlip, fault.KindStuckVC,
		fault.KindFalsePos,
	}
	p := &fault.Plan{Seed: seed}
	n := 3 + rng.Intn(4)
	for i := 0; i < n; i++ {
		ev := fault.Event{
			Kind:  kinds[rng.Intn(len(kinds))],
			At:    sim.Cycle(500 + rng.Intn(10_000)),
			Tile:  msg.TileID(rng.Intn(16)),
			Port:  noc.Port(1 + rng.Intn(int(noc.NumPorts)-1)),
			VC:    rng.Intn(noc.NumVCs),
			Dur:   sim.Cycle(200 + rng.Intn(4_000)),
			Count: 1 + rng.Intn(3),
		}
		p.Events = append(p.Events, ev)
	}
	p.Rates = append(p.Rates, fault.Rate{
		Event:     fault.Event{Kind: fault.KindWildWrite, Tile: msg.TileID(rng.Intn(16)), Count: 1},
		MeanEvery: sim.Cycle(4_000 + rng.Intn(8_000)),
	})
	return p
}
