package core

import (
	"fmt"
	"reflect"
	"testing"

	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/fault"
	"apiary/internal/monitor"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// groupEcho is a minimal concurrent-only service: it echoes requests and
// cannot contain faults per-context, so a forced fault fail-stops its tile —
// exactly the replica-death case the failover machinery exists for.
type groupEcho struct {
	name string
}

func (a *groupEcho) Name() string  { return a.name }
func (a *groupEcho) Contexts() int { return 1 }
func (a *groupEcho) Reset()        {}
func (a *groupEcho) Tick(p accel.Port) {
	for i := 0; i < 4; i++ {
		m, ok := p.Recv()
		if !ok {
			return
		}
		if m.Type == msg.TRequest {
			p.Send(m.Reply(msg.TReply, m.Payload))
		}
	}
}

const (
	svcRepA  = msg.FirstUserService
	svcRepB  = msg.FirstUserService + 1
	svcRepC  = msg.FirstUserService + 2
	svcGroup = msg.FirstUserService + 10
)

// loadGroupApp loads n echo replicas (tiles 2, 3, ...) plus a group over
// them, with no client.
func loadGroupApp(t *testing.T, s *System, n int) {
	t.Helper()
	spec := AppSpec{Name: "ha", Restart: true}
	members := []msg.ServiceID{}
	for i := 0; i < n; i++ {
		svc := msg.FirstUserService + msg.ServiceID(i)
		name := fmt.Sprintf("rep%d", i)
		spec.Accels = append(spec.Accels, AppAccel{
			Name: name, Service: svc,
			New: func() accel.Accelerator { return &groupEcho{name: name} },
		})
		members = append(members, svc)
	}
	spec.Groups = []ReplicaGroupSpec{{Service: svcGroup, Members: members}}
	if _, err := s.Kernel.LoadApp(spec); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterReplicaSetValidation(t *testing.T) {
	s := boot(t)
	loadGroupApp(t, s, 2)
	k := s.Kernel
	cases := []struct {
		name  string
		group msg.ServiceID
		mem   []msg.ServiceID
	}{
		{"reserved id", msg.SvcMemory, []msg.ServiceID{svcRepA}},
		{"name taken by service", svcRepA, []msg.ServiceID{svcRepB}},
		{"name taken by group", svcGroup, []msg.ServiceID{svcRepA}},
		{"no members", svcGroup + 1, nil},
		{"self reference", svcGroup + 1, []msg.ServiceID{svcGroup + 1}},
		{"duplicate member", svcGroup + 1, []msg.ServiceID{svcRepA, svcRepA}},
		{"unregistered member", svcGroup + 1, []msg.ServiceID{svcRepA, 999}},
		{"member is a group", svcGroup + 1, []msg.ServiceID{svcGroup}},
		{"member already grouped", svcGroup + 1, []msg.ServiceID{svcRepA}},
	}
	for _, c := range cases {
		if err := k.RegisterReplicaSet("ha", c.group, c.mem); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if len(k.Directory()) != 1 {
		t.Fatalf("directory grew on rejected registrations: %v", k.Directory())
	}
	if p, ok := k.GroupPrimary(svcGroup); !ok || p != svcRepA {
		t.Fatalf("primary = %d, want %d", p, svcRepA)
	}
	if tile, ok := k.ServiceTile(svcGroup); !ok || tile != 2 {
		t.Fatalf("group bound to tile %d, want 2", tile)
	}
}

func TestContainedFaultMarksDegraded(t *testing.T) {
	s := boot(t)
	// A preemptible member (KVStore) absorbs the fault per-context: the
	// tile keeps Running but its directory verdict drops to Degraded.
	spec := AppSpec{
		Name: "ha",
		Accels: []AppAccel{
			{Name: "kv", Service: svcRepA,
				New: func() accel.Accelerator { return apps.NewKVStore(2) }},
			{Name: "echo", Service: svcRepB,
				New: func() accel.Accelerator { return &groupEcho{name: "echo"} }},
		},
		Groups: []ReplicaGroupSpec{{Service: svcGroup,
			Members: []msg.ServiceID{svcRepA, svcRepB}}},
	}
	if _, err := s.Kernel.LoadApp(spec); err != nil {
		t.Fatal(err)
	}
	kvTile, _ := s.Kernel.ServiceTile(svcRepA)
	s.Kernel.Monitor(kvTile).ForceFault(0, accel.FaultSpurious)
	s.Run(5_000) // deliver the fault report to the kernel
	if h := s.Kernel.MemberHealth(svcRepA); h != HealthDegraded {
		t.Fatalf("health = %v, want degraded", h)
	}
	if s.Kernel.Shell(kvTile).State() != accel.Running {
		t.Fatal("contained fault fail-stopped the tile")
	}
	// Degraded demotes but does not evict: no failover, binding unchanged.
	if s.Kernel.Failovers() != 0 {
		t.Fatal("degraded primary triggered a failover")
	}
	if p, _ := s.Kernel.GroupPrimary(svcGroup); p != svcRepA {
		t.Fatalf("primary moved to %d", p)
	}
	if got := s.Kernel.DegradedTiles(); len(got) != 1 || got[0] != kvTile {
		t.Fatalf("DegradedTiles = %v, want [%d]", got, kvTile)
	}
}

// TestFailoverPreference walks the whole health lattice: fail the primary
// (prefer the Up member over the Degraded one), fail the new primary
// (Degraded is the target of last resort), fail everything (binding stays),
// then recover one member (the group self-heals onto it).
func TestFailoverPreference(t *testing.T) {
	s := boot(t)
	loadGroupApp(t, s, 3)
	k := s.Kernel
	tileA, _ := k.ServiceTile(svcRepA)
	tileB, _ := k.ServiceTile(svcRepB)
	tileC, _ := k.ServiceTile(svcRepC)

	k.setHealth(svcRepB, HealthDegraded)
	k.Monitor(tileA).ForceFault(0, accel.FaultSpurious) // concurrent-only: fail-stop
	s.Run(5_000)
	if p, _ := k.GroupPrimary(svcGroup); p != svcRepC {
		t.Fatalf("primary after A died = %d, want C (%d): degraded B preferred over up C", p, svcRepC)
	}
	if tile, _ := k.ServiceTile(svcGroup); tile != tileC {
		t.Fatalf("group bound to tile %d, want %d", tile, tileC)
	}

	k.quarantine(k.tiles[tileC], "test")
	if p, _ := k.GroupPrimary(svcGroup); p != svcRepB {
		t.Fatalf("primary after C died = %d, want degraded B (%d) as last resort", p, svcRepB)
	}

	k.quarantine(k.tiles[tileB], "test")
	if p, _ := k.GroupPrimary(svcGroup); p != svcRepB {
		t.Fatal("no-survivor failover moved the binding")
	}
	if k.Failovers() != 2 {
		t.Fatalf("failovers = %d, want 2", k.Failovers())
	}

	// Self-heal: the first member to come back Up takes the binding away
	// from the fenced primary.
	k.recoverTile(k.tiles[tileA])
	if p, _ := k.GroupPrimary(svcGroup); p != svcRepA {
		t.Fatalf("recovered member did not take over: primary = %d", p)
	}
	if tile, _ := k.ServiceTile(svcGroup); tile != tileA {
		t.Fatalf("group bound to tile %d after self-heal, want %d", tile, tileA)
	}
}

func TestUnloadDropsGroups(t *testing.T) {
	s := boot(t)
	loadGroupApp(t, s, 2)
	if err := s.Kernel.UnloadApp("ha"); err != nil {
		t.Fatal(err)
	}
	if d := s.Kernel.Directory(); len(d) != 0 {
		t.Fatalf("directory survives unload: %v", d)
	}
	if _, ok := s.Kernel.ServiceTile(svcGroup); ok {
		t.Fatal("group service still bound after unload")
	}
	// The freed names are reusable.
	loadGroupApp(t, s, 2)
	if d := s.Kernel.Directory(); len(d) != 1 {
		t.Fatalf("reload after unload: directory = %v", d)
	}
}

// failoverSnap is the determinism witness for an injected failover run.
type failoverSnap struct {
	Counters  map[string]uint64
	Responses int
	Errors    int
	Retried   int
	Primary   msg.ServiceID
	Dir       string
	Failovers uint64
	Quars     uint64
	Recovs    uint64
}

// runFailover boots a 4x4 board with watchdogs and a chaos plan, loads two
// echo replicas behind a group plus a resilient requester driving the group
// service, runs a fixed horizon, and fingerprints the end state.
func runFailover(t *testing.T, plan *fault.Plan, horizon sim.Cycle, total int, gap sim.Cycle) failoverSnap {
	t.Helper()
	s, err := NewSystem(SystemConfig{
		Dims: noc.Dims{W: 4, H: 4}, Seed: 1,
		Detect: monitor.DefaultDetect, FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := apps.NewRequester(svcGroup, total, gap,
		func(int) []byte { return make([]byte, 64) }, nil)
	client.RetryLimit = 6
	client.RetryNacks = true
	client.BackoffBase = 512
	client.BackoffMax = 32_768
	spec := AppSpec{
		Name: "ha", Restart: true,
		Accels: []AppAccel{
			{Name: "repa", Service: svcRepA,
				New: func() accel.Accelerator { return &groupEcho{name: "repa"} }},
			{Name: "repb", Service: svcRepB,
				New: func() accel.Accelerator { return &groupEcho{name: "repb"} }},
			{Name: "client", New: func() accel.Accelerator { return client },
				Connect: []msg.ServiceID{svcGroup}},
		},
		Groups: []ReplicaGroupSpec{{Service: svcGroup,
			Members: []msg.ServiceID{svcRepA, svcRepB}}},
	}
	if _, err := s.Kernel.LoadApp(spec); err != nil {
		t.Fatal(err)
	}
	s.Run(horizon)

	snap := failoverSnap{
		Counters:  map[string]uint64{},
		Responses: client.Responses(), Errors: client.Errors(), Retried: client.Retransmits(),
		Failovers: s.Kernel.Failovers(), Quars: s.Kernel.Quarantines(), Recovs: s.Kernel.Recoveries(),
		Dir: fmt.Sprint(s.Kernel.Directory()),
	}
	snap.Primary, _ = s.Kernel.GroupPrimary(svcGroup)
	for _, c := range s.Stats.Counters() {
		snap.Counters[c.Name] = c.Value()
	}
	return snap
}

// killPrimaryPlan hangs tile 2 — first-fit puts replica A, the initial
// primary, there — long enough for the heartbeat watchdog to trip.
func killPrimaryPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 7,
		Events: []fault.Event{
			{Kind: fault.KindHang, At: 80_000, Tile: 2, Dur: 120_000},
		},
	}
}

// TestFailoverDifferential is the tentpole proof for the failover path: kill
// the primary mid-run and the whole degradation cascade — watchdog verdict,
// quarantine, group re-bind, capability re-mint, client retries, recovery —
// lands bit-exactly on the same counters, client totals and directory in
// two runs of the same configuration. Zero healthy-tenant requests lost.
func TestFailoverDifferential(t *testing.T) {
	const (
		horizon = 600_000
		total   = 600
		gap     = 300
	)
	base := runFailover(t, killPrimaryPlan(), horizon, total, gap)
	if base.Failovers < 1 || base.Quars < 1 {
		t.Fatalf("plan killed nothing: failovers=%d quarantines=%d", base.Failovers, base.Quars)
	}
	if base.Recovs < 1 {
		t.Fatalf("primary never recovered: recoveries=%d", base.Recovs)
	}
	if base.Primary != svcRepB {
		t.Fatalf("primary = %d, want %d (no fail-back after recovery)", base.Primary, svcRepB)
	}
	if base.Responses != total || base.Errors != 0 {
		t.Fatalf("lost requests across failover: responses=%d/%d errors=%d",
			base.Responses, total, base.Errors)
	}
	if base.Retried == 0 {
		t.Fatal("failover window cost no retransmits — the kill happened after the workload")
	}
	got := runFailover(t, killPrimaryPlan(), horizon, total, gap)
	if !reflect.DeepEqual(got, base) {
		for k, v := range base.Counters {
			if got.Counters[k] != v {
				t.Errorf("counter %s = %d, want %d", k, got.Counters[k], v)
			}
		}
		got.Counters, base.Counters = nil, nil
		t.Errorf("snapshots differ:\n got %+v\nwant %+v", got, base)
	}
}

// TestFailoverSoak drives repeated failover/recovery cycles — primary dies,
// group re-binds, primary recovers, *new* primary dies, group re-binds back
// — from three seeds, requiring two runs of each to agree exactly.
func TestFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for _, seed := range []uint64{2, 3, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			plan := &fault.Plan{
				Seed: seed,
				Events: []fault.Event{
					{Kind: fault.KindHang, At: sim.Cycle(60_000 + rng.Intn(40_000)),
						Tile: 2, Dur: sim.Cycle(100_000 + rng.Intn(50_000))},
					{Kind: fault.KindHang, At: sim.Cycle(500_000 + rng.Intn(60_000)),
						Tile: 3, Dur: sim.Cycle(100_000 + rng.Intn(50_000))},
				},
			}
			base := runFailover(t, plan, 1_000_000, 1200, 600)
			if base.Failovers < 2 {
				t.Fatalf("wanted repeated failover cycles, got %d", base.Failovers)
			}
			if base.Responses != 1200 || base.Errors != 0 {
				t.Fatalf("lost requests: responses=%d errors=%d", base.Responses, base.Errors)
			}
			got := runFailover(t, plan, 1_000_000, 1200, 600)
			if !reflect.DeepEqual(got, base) {
				t.Errorf("repeated soak runs disagree:\n got %+v\nwant %+v", got, base)
			}
		})
	}
}
