package fault

import (
	"testing"

	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// The migrate fault kind: parse, validate, round-trip, and dispatch — the
// chaos engine's way of putting checkpoint/restore under fire. The
// kernel-side effect is covered in core (TestChaosMigrateFault).

func TestParsePlanMigrate(t *testing.T) {
	p, err := ParsePlan([]byte("migrate at=8000 tile=5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 1 {
		t.Fatalf("events = %+v", p.Events)
	}
	ev := p.Events[0]
	if ev.Kind != KindMigrate || ev.At != 8000 || ev.Tile != 5 {
		t.Fatalf("event = %+v", ev)
	}
	if err := p.Validate(noc.Dims{W: 4, H: 4}); err != nil {
		t.Fatal(err)
	}
	rt, err := ParsePlan([]byte(p.String()))
	if err != nil || len(rt.Events) != 1 || rt.Events[0] != ev {
		t.Fatalf("round trip: %v %+v", err, rt)
	}
}

// nopMigrateTarget is a Target with no behavior; with migrate recording
// layered on it implements MigrateTarget too.
type nopMigrateTarget struct{}

func (nopMigrateTarget) Hang(msg.TileID, sim.Cycle)                  {}
func (nopMigrateTarget) Babble(msg.TileID, sim.Cycle, msg.ServiceID) {}
func (nopMigrateTarget) WildWrite(msg.TileID, int)                   {}
func (nopMigrateTarget) FalsePositive(msg.TileID)                    {}

type migrateRecorder struct {
	nopMigrateTarget
	migrated []int
}

func (m *migrateRecorder) Migrate(tile msg.TileID) {
	m.migrated = append(m.migrated, int(tile))
}

func dispatchHarness(t *testing.T, target Target, plan *Plan) {
	t.Helper()
	e := sim.NewEngine(1)
	st := sim.NewStats()
	net := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 4, H: 4}})
	in := NewInjector(plan, e, net, target, st)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	e.Run(200)
	if in.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", in.Injected())
	}
}

func TestInjectorDispatchesMigrate(t *testing.T) {
	rec := &migrateRecorder{}
	dispatchHarness(t, rec,
		&Plan{Events: []Event{{Kind: KindMigrate, At: 100, Tile: 3}}})
	if len(rec.migrated) != 1 || rec.migrated[0] != 3 {
		t.Fatalf("migrated = %v, want [3]", rec.migrated)
	}
}

func TestInjectorSkipsMigrateWithoutTarget(t *testing.T) {
	// A target without MigrateTarget must be a silent no-op, not a panic.
	dispatchHarness(t, nopMigrateTarget{},
		&Plan{Events: []Event{{Kind: KindMigrate, At: 100, Tile: 3}}})
}
