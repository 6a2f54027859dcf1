package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"apiary/internal/apps"
)

// runFleetObs is runFleet with a parameterized span sampling rate. It
// returns two fingerprints: the full one (stats + spans + clients) and a
// simulation-only one with the recorded-span lines stripped. The full
// fingerprint must be invariant across worker counts at a fixed
// sampling rate; the sim fingerprint must be invariant across sampling
// rates too — tracing is pure observation and must never steer the
// simulation.
func runFleetObs(t *testing.T, seed uint64, workers, spanEvery int) (full, sim string) {
	t.Helper()
	cfg := fleetCfg(16, seed, workers)
	cfg.Board.SpanSampleEvery = spanEvery
	fl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := fl.Orchestrator().DeployService(kvDeployment(2)); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	var reqs []*apps.Requester
	for _, b := range []int{2, 5, 9, 14} {
		reqs = append(reqs, addClient(t, fl, b, 5, nil))
	}
	done := func() bool {
		for _, r := range reqs {
			if !r.Done() {
				return false
			}
		}
		return true
	}
	if !fl.RunUntil(done, 400_000) {
		t.Fatalf("spanEvery=%d workers=%d: clients not done by budget", spanEvery, workers)
	}
	for i, r := range reqs {
		if r.Responses() != 5 || r.Errors() != 0 {
			t.Fatalf("client %d: resp=%d errs=%d, want 5/0", i, r.Responses(), r.Errors())
		}
	}
	if spanEvery > 0 && fl.TracedLinkFrames() == 0 {
		t.Fatalf("spanEvery=%d: no cross-board frame carried a trace context", spanEvery)
	}
	if spanEvery == 0 && fl.TracedLinkFrames() != 0 {
		t.Fatalf("tracing disabled but %d link frames traced", fl.TracedLinkFrames())
	}
	full = fingerprint(fl, reqs)
	var sb strings.Builder
	for _, line := range strings.SplitAfter(full, "\n") {
		if !strings.HasPrefix(line, "span ") {
			sb.WriteString(line)
		}
	}
	return full, sb.String()
}

// TestFleetObsDifferential is the observability chaos test: a 16-board
// fleet run with tracing off, 1-in-64, and every-packet sampling, each
// under 1 and 4 workers. Per sampling rate the full fingerprint (including
// the recorded span set) must be bit-exact across worker counts; across
// sampling rates the span-free sim fingerprint must be bit-exact —
// observation cannot perturb timing.
func TestFleetObsDifferential(t *testing.T) {
	const seed = 12345
	workerCounts := []int{1, 4}
	var simBase string
	for _, spanEvery := range []int{0, 64, 1} {
		var fullBase string
		for i, workers := range workerCounts {
			full, sim := runFleetObs(t, seed, workers, spanEvery)
			if i == 0 {
				fullBase = full
			} else if full != fullBase {
				t.Fatalf("spanEvery=%d: full fingerprint diverged between workers=%d and workers=%d:\n%s",
					spanEvery, workerCounts[0], workers, firstDiff(fullBase, full))
			}
			if simBase == "" {
				simBase = sim
			} else if sim != simBase {
				t.Fatalf("sim fingerprint diverged at spanEvery=%d workers=%d — tracing perturbed the simulation:\n%s",
					spanEvery, workers, firstDiff(simBase, sim))
			}
		}
	}
}

// TestFleetStitchedTrace checks the merged Chrome export: one cross-board
// request must render as spans on at least two distinct board process rows
// plus a cluster-link hop on the dedicated cluster row.
func TestFleetStitchedTrace(t *testing.T) {
	cfg := fleetCfg(4, 7, 1)
	cfg.Board.SpanSampleEvery = 1 // trace every packet
	fl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := fl.Orchestrator().DeployService(kvDeployment(2)); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	req := addClient(t, fl, 2, 5, nil)
	if !fl.RunUntil(req.Done, 400_000) {
		t.Fatal("client not done by budget")
	}
	if req.Responses() != 5 || req.Errors() != 0 {
		t.Fatalf("client: resp=%d errs=%d, want 5/0", req.Responses(), req.Errors())
	}
	if len(fl.LinkHops()) == 0 {
		t.Fatal("no traced cluster-link hops retained")
	}

	var buf bytes.Buffer
	if err := fl.WriteTraceJSON(&buf); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("merged trace not valid JSON: %v", err)
	}
	boardsByTrace := map[string]map[float64]bool{} // trace hex -> board pids
	linkTraces := map[string]bool{}                // trace hex -> seen on cluster row
	for _, e := range evs {
		if e["ph"] != "X" {
			continue
		}
		args, _ := e["args"].(map[string]any)
		tr, _ := args["trace"].(string)
		if tr == "" {
			continue
		}
		if e["cat"] == "cluster" {
			linkTraces[tr] = true
			continue
		}
		if boardsByTrace[tr] == nil {
			boardsByTrace[tr] = map[float64]bool{}
		}
		boardsByTrace[tr][e["pid"].(float64)] = true
	}
	stitched := false
	for tr, pids := range boardsByTrace {
		if len(pids) >= 2 && linkTraces[tr] {
			stitched = true
			break
		}
	}
	if !stitched {
		var detail strings.Builder
		for tr, pids := range boardsByTrace {
			fmt.Fprintf(&detail, "  trace %s: %d board rows, link=%v\n", tr, len(pids), linkTraces[tr])
		}
		t.Fatalf("no trace stitched across >=2 boards with a cluster-link hop:\n%s", detail.String())
	}
}
