package load

import (
	"strings"
	"testing"

	"apiary/internal/obs"
	"apiary/internal/sim"
)

// migScn exercises on-board live migration under fire: the backend (with a
// managed-memory segment the checkpoint must carry) migrates to a new
// region mid-scenario while a chaos stall lands inside the reconfiguration
// window. The move phase is sized past the partial-reconfiguration delay so
// steady post-migration traffic exists to compare against the control run.
const migScn = `
scenario mig
seed 31
sessions 4000
target svc=40 mem=4096
timeout 10000
class get weight=3 bytes=8
class put weight=1 bytes=48
phase warm dur=20000 rate=3000
phase move dur=320000 rate=3000
phase cool dur=40000 rate=2000
migrate at=30000
chaos stall at=100000 tile=4 port=E dur=1500
`

// migFleetScn moves the primary replica across boards mid-scenario. Boards:
// replicas on 0/1, client proxies on 2/3, board 4 free — the deterministic
// auto-pick destination.
const migFleetScn = `
scenario migfleet
seed 47
sessions 6000
target svc=40 mem=16384
timeout 12000
fleet boards=5 replicas=2 clients=2
class get weight=8 bytes=16
class put weight=2 bytes=96
phase warm dur=24000 rate=2000
phase move dur=56000 rate=2000
phase cool dur=20000 rate=1000
migrate at=40000
`

// migAbortScn kills the migration destination mid-transfer: the snapshot is
// big enough (512 KiB over a 2.5 KB/epoch link budget) that the kill is
// guaranteed to land while the blob is still crossing the cluster link.
const migAbortScn = `
scenario migabort
seed 53
sessions 6000
target svc=40 mem=524288
timeout 12000
fleet boards=5 replicas=2 clients=2
class get weight=8 bytes=16
phase warm dur=24000 rate=2000
phase move dur=36000 rate=2000
phase cool dur=20000 rate=1000
migrate at=26000
kill board=4 at=32000
`

// stripDirective removes one scenario line, producing the control scenario.
func stripDirective(t *testing.T, text, line string) string {
	t.Helper()
	out := strings.Replace(text, line+"\n", "", 1)
	if out == text {
		t.Fatalf("directive %q not found in scenario", line)
	}
	return out
}

// outcomeMap indexes completions by seq and enforces the zero-lost /
// zero-duplicated contract: every arrival completes exactly once.
func outcomeMap(t *testing.T, rec *Recording) map[uint32]Outcome {
	t.Helper()
	m := make(map[uint32]Outcome, len(rec.Completions))
	for _, c := range rec.Completions {
		if _, dup := m[c.Seq]; dup {
			t.Fatalf("seq %d completed twice", c.Seq)
		}
		m[c.Seq] = c.Outcome
	}
	if len(m) != len(rec.Arrivals) {
		t.Fatalf("%d arrivals but %d unique completions", len(rec.Arrivals), len(m))
	}
	for _, a := range rec.Arrivals {
		if _, ok := m[a.Seq]; !ok {
			t.Fatalf("arrival seq %d never completed", a.Seq)
		}
	}
	return m
}

// migrateDoneAt finds the completed migration's cycle in a decision log.
func migrateDoneAt(t *testing.T, events []obs.Event) sim.Cycle {
	t.Helper()
	for _, e := range events {
		if e.Kind == obs.EvMigrateDone {
			return e.Cycle
		}
	}
	t.Fatal("no migrate-done event recorded")
	return 0
}

// diffOutsideWindow compares per-seq outcomes between a migrated and a
// control recording, excluding arrivals whose lifetime can overlap the
// migration window [start, end]. It returns how many arrivals fell inside
// the window and how many post-window arrivals succeeded.
func diffOutsideWindow(t *testing.T, mig, ctl *Recording, timeout, start, end sim.Cycle) (inWin, postOK int) {
	t.Helper()
	if len(mig.Arrivals) != len(ctl.Arrivals) {
		t.Fatalf("arrival streams differ: %d vs %d (open loop broken)",
			len(mig.Arrivals), len(ctl.Arrivals))
	}
	for i := range mig.Arrivals {
		if mig.Arrivals[i] != ctl.Arrivals[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, mig.Arrivals[i], ctl.Arrivals[i])
		}
	}
	migOut := outcomeMap(t, mig)
	ctlOut := outcomeMap(t, ctl)
	for _, a := range mig.Arrivals {
		if a.At+timeout >= start && a.At <= end+timeout {
			inWin++
			continue
		}
		if migOut[a.Seq] != ctlOut[a.Seq] {
			t.Fatalf("seq %d (arrived %d): outcome %v migrated vs %v control outside window [%d, %d]",
				a.Seq, a.At, migOut[a.Seq], ctlOut[a.Seq], start, end)
		}
		if a.At > end && migOut[a.Seq] == OutcomeOK {
			postOK++
		}
	}
	return inWin, postOK
}

// TestMigrateDifferential is the on-board half of the migration acceptance
// gate: a kernel-driven live migration is bit-exact across runs, and
// against an unmigrated control run the client-visible outcome of every
// request outside the bounded migration window is identical — no request is
// lost or answered twice.
func TestMigrateDifferential(t *testing.T) {
	mig := mustParse(t, migScn)
	ctl := mustParse(t, stripDirective(t, migScn, "migrate at=30000"))

	run := func(scn *Scenario) *BoardRun {
		br, err := NewBoardRun(scn, boardCfg())
		if err != nil {
			t.Fatalf("board run: %v", err)
		}
		br.RunScenario(60000)
		if !br.Done() {
			t.Fatalf("run did not drain: %+v", br.Status())
		}
		return br
	}

	ctlRun := run(ctl)
	migRun := run(mig)
	k := migRun.Sys.Kernel
	if k.MigrationsDone() != 1 || k.MigrationAborts() != 0 {
		t.Fatalf("migrations done=%d aborts=%d, want 1/0", k.MigrationsDone(), k.MigrationAborts())
	}
	doneAt := migrateDoneAt(t, migRun.Sys.Events.Events())
	mAt := mig.Migrate[0].At
	if doneAt <= mAt {
		t.Fatalf("migrate-done at %d not after start %d", doneAt, mAt)
	}

	// The migrated run is bit-exact across repeats.
	if got, want := run(mig).Fingerprint(), migRun.Fingerprint(); got != want {
		t.Fatalf("repeat migrated run fingerprint %#x != first run %#x", got, want)
	}

	timeout := mig.Timeout
	inWin, postOK := diffOutsideWindow(t,
		migRun.Gen.Recording(), ctlRun.Gen.Recording(), timeout, mAt, doneAt)
	if inWin == 0 {
		t.Fatal("no arrivals overlapped the migration window; scenario proves nothing")
	}
	if postOK == 0 {
		t.Fatal("no successful post-migration requests: service did not resume")
	}
	t.Logf("on-board: window [%d, %d], %d in-window arrivals, %d post-window OK",
		mAt, doneAt, inWin, postOK)
}

// TestMigrateFleetDifferential moves the primary replica across boards
// mid-load: bit-exact at workers 1 vs 4, directory re-pointed to the
// destination, and per-seq outcomes identical to the unmigrated control
// outside the bounded window.
func TestMigrateFleetDifferential(t *testing.T) {
	scn := mustParse(t, migFleetScn)
	ctl := mustParse(t, stripDirective(t, migFleetScn, "migrate at=40000"))

	run := func(scn *Scenario, workers int) *FleetRun {
		fr, err := NewFleetRun(scn, fleetCfg(workers))
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		fr.RunScenario(50000)
		if !fr.Done() {
			t.Fatalf("fleet run (workers=%d) did not drain: %+v", workers, fr.Status())
		}
		return fr
	}

	var fps []uint64
	var migRun *FleetRun
	for _, workers := range []int{1, 4} {
		fr := run(scn, workers)
		orch := fr.Fl.Orchestrator()
		if orch.MigrationsDone() != 1 || orch.MigrationAborts() != 0 {
			t.Fatalf("workers=%d: migrations done=%d aborts=%d, want 1/0",
				workers, orch.MigrationsDone(), orch.MigrationAborts())
		}
		if n := len(orch.Migrations()); n != 0 {
			t.Fatalf("workers=%d: %d migrations still in flight after drain", workers, n)
		}
		// Replica 0 left board 0 for the free board: the directory re-bind
		// is the client-visible half of the move.
		if b := fr.Fl.Directory().Backends("scn-migfleet")[0].Board; b == 0 {
			t.Fatalf("workers=%d: replica 0 still bound to board 0 after migration", workers)
		}
		fps = append(fps, fr.Fingerprint())
		if workers == 1 {
			migRun = fr
		}
	}
	if fps[0] != fps[1] {
		t.Fatalf("fleet workers 1 vs 4 fingerprints differ: %#x vs %#x", fps[0], fps[1])
	}

	ctlRun := run(ctl, 1)
	// The cross-board window: quiesce begins at the directive cycle; the
	// 16 KiB snapshot crosses the link within a conservative 20k cycles.
	mAt := scn.Migrate[0].At
	end := mAt + 20000
	totalWin, totalPost := 0, 0
	for i := range migRun.Gens {
		inWin, postOK := diffOutsideWindow(t,
			migRun.Gens[i].Recording(), ctlRun.Gens[i].Recording(), scn.Timeout, mAt, end)
		totalWin += inWin
		totalPost += postOK
	}
	if totalPost == 0 {
		t.Fatal("no successful post-migration requests: service did not resume")
	}
	t.Logf("fleet: window [%d, %d], %d in-window arrivals, %d post-window OK",
		mAt, end, totalWin, totalPost)
}

// TestMigrateAbortMidTransfer kills the destination board while the
// snapshot is mid-transfer: the move aborts, the source resumes
// authoritative, the directory binding never changes, and no client request
// is lost or duplicated — all bit-exact across worker counts.
func TestMigrateAbortMidTransfer(t *testing.T) {
	scn := mustParse(t, migAbortScn)
	var fps []uint64
	for _, workers := range []int{1, 4} {
		fr, err := NewFleetRun(scn, fleetCfg(workers))
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		fr.RunScenario(50000)
		if !fr.Done() {
			t.Fatalf("fleet run (workers=%d) did not drain: %+v", workers, fr.Status())
		}
		orch := fr.Fl.Orchestrator()
		if orch.MigrationsDone() != 0 || orch.MigrationAborts() != 1 {
			t.Fatalf("workers=%d: migrations done=%d aborts=%d, want 0/1",
				workers, orch.MigrationsDone(), orch.MigrationAborts())
		}
		// Source authoritative: replica 0 never left board 0.
		if b := fr.Fl.Directory().Backends("scn-migabort")[0].Board; b != 0 {
			t.Fatalf("workers=%d: replica 0 on board %d after aborted move, want 0", workers, b)
		}
		// Zero lost / zero duplicated client-visible requests, and the
		// service kept serving after the abort (cool phase succeeded).
		rep := fr.Report()
		if rep[len(rep)-1].OK == 0 {
			t.Fatalf("workers=%d: no successful requests after the aborted move", workers)
		}
		for _, g := range fr.Gens {
			outcomeMap(t, g.Recording())
		}
		fps = append(fps, fr.Fingerprint())
	}
	if fps[0] != fps[1] {
		t.Fatalf("abort run workers 1 vs 4 fingerprints differ: %#x vs %#x", fps[0], fps[1])
	}
}

// TestMigrateFleetDrain drains a whole board: every replica it hosts is
// live-migrated off, and the directory follows.
func TestMigrateFleetDrain(t *testing.T) {
	text := stripDirective(t, migFleetScn, "migrate at=40000") + "drain board=1 at=40000\n"
	scn := mustParse(t, text)
	fr, err := NewFleetRun(scn, fleetCfg(0))
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	fr.RunScenario(50000)
	if !fr.Done() {
		t.Fatalf("drain run did not finish: %+v", fr.Status())
	}
	orch := fr.Fl.Orchestrator()
	if orch.MigrationsDone() != 1 || orch.MigrationAborts() != 0 {
		t.Fatalf("migrations done=%d aborts=%d, want 1/0", orch.MigrationsDone(), orch.MigrationAborts())
	}
	if b := fr.Fl.Directory().Backends("scn-migfleet")[1].Board; b == 1 {
		t.Fatal("replica 1 still on drained board 1")
	}
	for _, g := range fr.Gens {
		outcomeMap(t, g.Recording())
	}
}
