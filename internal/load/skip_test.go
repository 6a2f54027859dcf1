package load

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"apiary/internal/obs"
)

// sparseScn is a single-board scenario far below the knee: the board idles
// between arrivals, so with idle-skip on it runs almost entirely
// fast-forwarded (generator asleep between arrivals, backend replies held
// until due).
const sparseScn = `
scenario sparse
seed 3
sessions 4000
target svc=40
timeout 8000
class get weight=8 bytes=16
class put weight=2 bytes=96
phase quiet dur=60000 rate=800
phase pulse dur=40000 rate=1500 burst=6000@9000x1200
phase idle dur=20000 rate=0
phase tail dur=20000 rate=300
`

// genHangScn hangs the generator's own tile (tile 3 on the 4x4 test board)
// three times: mid-phase, across a burst window's edges, and across a phase
// boundary. Cycles the shell withholds from the generator must not accrue
// arrivals, so the fingerprint is pinned from the per-cycle generator that
// preceded sleeping.
const genHangScn = `
scenario genhang
seed 5
sessions 3000
target svc=40
timeout 6000
class get weight=3 bytes=8
class put weight=1 bytes=48
phase quiet dur=20000 rate=900
phase burst dur=20000 rate=1200 burst=9000@5000x700
phase tail dur=10000 rate=400
chaos hang at=12000 tile=3 dur=4000
chaos hang at=24500 tile=3 dur=1500
chaos hang at=39000 tile=3 dur=2000
`

// genHangFingerprint is genHangScn's fingerprint from the generator that
// ticked every cycle and never slept.
const genHangFingerprint = 0x5e559a4c08df05b1

func readScn(t *testing.T, name string) *Scenario {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return mustParse(t, string(raw))
}

// phaseRecords lists the scenario-phase records in an event log.
func phaseRecords(l *obs.EventLog) []obs.Event {
	var out []obs.Event
	for _, e := range l.Events() {
		if e.Kind == obs.EvScenarioPhase {
			out = append(out, e)
		}
	}
	return out
}

// TestSkipInvariance runs scenarios with idle-skip off on every engine and
// with it on: sleeping tickers must not change a single client-visible
// outcome or phase record, on one board and across a fleet at worker
// counts 1 and 4.
func TestSkipInvariance(t *testing.T) {
	boards := map[string]*Scenario{
		"example": readScn(t, "example.scn"),
		"sparse":  mustParse(t, sparseScn),
		"diff":    mustParse(t, diffScn),
	}
	for name, scn := range boards {
		var fps []uint64
		var phases [][]obs.Event
		for _, skip := range []bool{false, true} {
			br, err := NewBoardRun(scn, boardCfg())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			br.Sys.Engine.SetIdleSkip(skip)
			br.RunScenario(30000)
			if !br.Done() {
				t.Fatalf("%s (skip=%v) did not drain: %+v", name, skip, br.Status())
			}
			if skip && name == "sparse" && br.Sys.Engine.SkippedCycles() < uint64(br.Now())/2 {
				t.Fatalf("sparse run skipped only %d of %d cycles", br.Sys.Engine.SkippedCycles(), br.Now())
			}
			fps = append(fps, br.Fingerprint())
			phases = append(phases, phaseRecords(br.Sys.Events))
		}
		if fps[0] != fps[1] {
			t.Fatalf("%s: fingerprint %#x with idle-skip, %#x without", name, fps[1], fps[0])
		}
		if !reflect.DeepEqual(phases[0], phases[1]) {
			t.Fatalf("%s: phase records differ:\n skip:   %v\n noskip: %v", name, phases[1], phases[0])
		}
	}

	smoke := readScn(t, "smoke.scn")
	var fps []uint64
	for _, workers := range []int{1, 4} {
		for _, skip := range []bool{false, true} {
			fr, err := NewFleetRun(smoke, fleetCfg(workers))
			if err != nil {
				t.Fatalf("fleet: %v", err)
			}
			for b := 0; b < fr.Fl.Boards(); b++ {
				fr.Fl.Board(b).Sys.Engine.SetIdleSkip(skip)
			}
			fr.RunScenario(40000)
			if !fr.Done() {
				t.Fatalf("fleet (workers=%d skip=%v) did not drain: %+v", workers, skip, fr.Status())
			}
			fps = append(fps, fr.Fingerprint())
		}
	}
	for i, fp := range fps[1:] {
		if fp != fps[0] {
			t.Fatalf("fleet run %d fingerprint %#x != %#x (runs: workers 1/4 x skip off/on)", i+1, fp, fps[0])
		}
	}
}

func TestGeneratorHangFingerprint(t *testing.T) {
	scn := mustParse(t, genHangScn)
	br, err := NewBoardRun(scn, boardCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tile := br.Sys.Kernel.App("scn-load").Placed[0].Tile; tile != 3 {
		t.Fatalf("generator placed on tile %d; the hang directives target tile 3", tile)
	}
	br.RunScenario(30000)
	if !br.Done() {
		t.Fatalf("did not drain: %+v", br.Status())
	}
	if got := br.Fingerprint(); got != genHangFingerprint {
		t.Fatalf("fingerprint %#x, want %#x", got, genHangFingerprint)
	}
}
