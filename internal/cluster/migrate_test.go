package cluster

import (
	"strings"
	"testing"

	"apiary/internal/obs"
)

// Orchestrator-level migration unit tests: directive validation, the
// happy-path cross-board move, maintenance drain, and abort semantics.
// Whole-run client-visible behavior is covered by the load package's
// migration differentials; these pin the decision layer.

func TestMigrateReplicaValidation(t *testing.T) {
	fl, err := New(fleetCfg(4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := fl.Orchestrator()
	if err := o.MigrateReplica("ghost", 0, -1); err == nil ||
		!strings.Contains(err.Error(), "was not deployed") {
		t.Fatalf("unknown service: %v", err)
	}
	if _, err := o.DeployService(kvDeployment(2)); err != nil {
		t.Fatal(err)
	}
	if err := o.MigrateReplica("kv", 5, -1); err == nil ||
		!strings.Contains(err.Error(), "no replica 5") {
		t.Fatalf("bad replica: %v", err)
	}
	src := fl.Directory().Backends("kv")[0].Board
	if err := o.MigrateReplica("kv", 0, src); err == nil ||
		!strings.Contains(err.Error(), "already on board") {
		t.Fatalf("self-migration: %v", err)
	}
	if err := o.MigrateReplica("kv", 0, 99); err == nil ||
		!strings.Contains(err.Error(), "dead or unknown") {
		t.Fatalf("unknown destination: %v", err)
	}
	if err := o.MigrateReplica("kv", 0, -1); err != nil {
		t.Fatalf("valid migration rejected: %v", err)
	}
	if err := o.MigrateReplica("kv", 0, -1); err == nil ||
		!strings.Contains(err.Error(), "already migrating") {
		t.Fatalf("double migration: %v", err)
	}
	if err := o.DrainBoard(-1); err == nil {
		t.Fatal("negative board drain accepted")
	}
}

func TestMigrateReplicaMovesBackend(t *testing.T) {
	fl, err := New(fleetCfg(4, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := fl.Orchestrator()
	if _, err := o.DeployService(kvDeployment(2)); err != nil {
		t.Fatal(err)
	}
	before := fl.Directory().Backends("kv")
	wasPrimary := fl.Directory().Primary("kv")
	if err := o.MigrateReplica("kv", wasPrimary, -1); err != nil {
		t.Fatal(err)
	}
	// Moving the primary shifts the binding to the live sibling first.
	if got := fl.Directory().Primary("kv"); got == wasPrimary {
		t.Fatal("primary not shifted off the moving replica")
	}
	if !fl.RunUntil(func() bool { return o.MigrationsDone() == 1 }, 600_000) {
		t.Fatalf("migration incomplete: %+v", o.Migrations())
	}
	if o.MigrationAborts() != 0 {
		t.Fatalf("aborts = %d", o.MigrationAborts())
	}
	after := fl.Directory().Backends("kv")
	if after[wasPrimary].Board == before[wasPrimary].Board {
		t.Fatalf("backend did not move: %+v -> %+v", before, after)
	}
	// The moved replica landed outside the backend set it left behind.
	for r, b := range before {
		if r != wasPrimary && after[wasPrimary].Board == b.Board {
			t.Fatalf("moved replica landed on sibling board %d", b.Board)
		}
	}
	// Retired jobs compact away; the decision log carries start and done.
	if len(o.Migrations()) != 0 {
		t.Fatalf("live jobs after completion: %+v", o.Migrations())
	}
	var sawStart, sawDone bool
	for _, ev := range fl.MergedEvents() {
		switch ev.Kind {
		case obs.EvMigrateStart:
			sawStart = true
		case obs.EvMigrateDone:
			sawDone = true
		}
	}
	if !sawStart || !sawDone {
		t.Fatalf("decision log missing migration events: start=%v done=%v", sawStart, sawDone)
	}
}

func TestDrainBoardMovesEveryReplica(t *testing.T) {
	fl, err := New(fleetCfg(4, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := fl.Orchestrator()
	if _, err := o.DeployService(kvDeployment(2)); err != nil {
		t.Fatal(err)
	}
	drained := fl.Directory().Backends("kv")[1].Board
	if err := o.DrainBoard(drained); err != nil {
		t.Fatal(err)
	}
	if !fl.RunUntil(func() bool { return o.MigrationsDone() == 1 }, 600_000) {
		t.Fatalf("drain incomplete: %+v", o.Migrations())
	}
	for _, b := range fl.Directory().Backends("kv") {
		if b.Board == drained {
			t.Fatalf("replica still on drained board %d", drained)
		}
	}
}

func TestMigrateAbortOnDestinationDeath(t *testing.T) {
	fl, err := New(fleetCfg(4, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := fl.Orchestrator()
	if _, err := o.DeployService(kvDeployment(2)); err != nil {
		t.Fatal(err)
	}
	before := fl.Directory().Backends("kv")
	if err := o.MigrateReplica("kv", 1, -1); err != nil {
		t.Fatal(err)
	}
	dst := o.Migrations()[0].Dst
	fl.KillBoard(dst)
	if !fl.RunUntil(func() bool { return o.MigrationAborts() == 1 }, 600_000) {
		t.Fatalf("abort never fired: %+v", o.Migrations())
	}
	if o.MigrationsDone() != 0 {
		t.Fatalf("done = %d after destination death", o.MigrationsDone())
	}
	// Source authoritative: the replica stays where it was.
	if got := fl.Directory().Backends("kv")[1].Board; got != before[1].Board {
		t.Fatalf("replica moved despite abort: board %d -> %d", before[1].Board, got)
	}
}

func TestScheduledDirectivesRunAtBarrier(t *testing.T) {
	fl, err := New(fleetCfg(4, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := fl.Orchestrator()
	if _, err := o.DeployService(kvDeployment(2)); err != nil {
		t.Fatal(err)
	}
	o.MigrateReplicaAt("kv", 1, 10_000)
	fl.Run(9_000)
	if len(o.Migrations()) != 0 {
		t.Fatal("scheduled migration started early")
	}
	if !fl.RunUntil(func() bool { return o.MigrationsDone() == 1 }, 600_000) {
		t.Fatalf("scheduled migration incomplete: %+v", o.Migrations())
	}
	// A scheduled directive that fails surfaces in the decision log
	// instead of erroring a caller that no longer exists.
	o.MigrateReplicaAt("ghost", 0, fl.Now()+1)
	fl.Run(2 * fl.Epoch())
	var sawAbort bool
	for _, ev := range fl.MergedEvents() {
		if ev.Kind == obs.EvMigrateAbort && ev.Cause == "scheduled directive" {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Fatal("failed scheduled directive left no abort event")
	}
}
