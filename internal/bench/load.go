package bench

import (
	"fmt"

	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/load"
	"apiary/internal/netsim"
	"apiary/internal/noc"
)

// E21 scenario shapes. Both are authored in the scenario DSL and compiled
// with load.ParseScenario — the bench dogfoods the same path apiaryd's
// -scenario flag takes. The class mix (8:2 get/put, 16/96-byte payloads)
// gives a mean service time of ~48 cycles at the echo backend, so one
// backend tile saturates near 20k rpMc and the three offered rates bracket
// the knee: under, near, and past capacity.
const (
	e21BoardScn = `scenario e21-board-r%d
seed 21
sessions 250000
target svc=40
timeout 20000
class get weight=8 bytes=16
class put weight=2 bytes=96
phase load dur=%d rate=%d
`
	e21FleetScn = `scenario e21-fleet-r%d%s
seed 22
sessions 1000000
target svc=40
timeout 20000
fleet boards=16 replicas=4 clients=8
class get weight=8 bytes=16
class put weight=2 bytes=96
phase load dur=%d rate=%d
%s`
)

const (
	e21BoardDur = 60000 // single-board phase length, cycles
	e21FleetDur = 40000 // fleet phase length, cycles
	e21Drain    = 30000 // run-out budget past scenario end
)

// e21Rates are the offered rates (rpMc) for the latency-vs-rate curve.
var e21Rates = []uint64{6000, 18000, 36000}

func e21ParseScn(text string) *load.Scenario {
	scn, err := load.ParseScenario([]byte(text))
	if err != nil {
		panic(fmt.Sprintf("e21: bad built-in scenario: %v", err))
	}
	return scn
}

func e21Row(r *Result, label string, pr load.PhaseReport) {
	r.AddRow(label,
		u(pr.OfferedRpMc), u(pr.GoodputRpMc),
		u(pr.Offered), u(pr.OK), u(pr.Denied), u(pr.Timeout), u(pr.Shed),
		f1(pr.P50), f1(pr.P99))
}

// E21Load sweeps offered rate against goodput and tail latency with the
// open-loop scenario harness: a single 4x4 board, then a 16-board fleet
// (4 replicas, 8 client generators, 10^6 synthetic sessions) with and
// without a mid-run kill of the primary replica board. Latency is stamped
// from each request's scheduled arrival cycle, so the curve is immune to
// coordinated omission — a saturated backend shows up as denials, timeouts
// and a p99 blow-up, never as a politely slowed generator. All columns are
// simulated (cycles/counts), so the table sits under the -compare gate.
func E21Load() Result {
	r := Result{
		ID:    "e21",
		Title: "Open-loop scenarios: goodput and tail latency vs offered rate",
		Header: []string{"Scenario", "OfferedRpMc", "GoodputRpMc",
			"Offered", "OK", "Denied", "Timeout", "Shed", "P50cy", "P99cy"},
	}

	for _, rate := range e21Rates {
		scn := e21ParseScn(fmt.Sprintf(e21BoardScn, rate, e21BoardDur, rate))
		br, err := load.NewBoardRun(scn, core.SystemConfig{
			Dims:            noc.Dims{W: 4, H: 4},
			ManagedMemBytes: 1 << 20,
		})
		if err != nil {
			r.Note("board rate %d: %v", rate, err)
			continue
		}
		br.RunScenario(e21Drain)
		e21Row(&r, fmt.Sprintf("board-r%d", rate), br.Report()[0])
	}

	fleet := func(rate uint64, kill bool) {
		label, killLine := "", ""
		if kill {
			label = "-kill"
			killLine = fmt.Sprintf("kill board=0 at=%d\n", e21FleetDur/2)
		}
		scn := e21ParseScn(fmt.Sprintf(e21FleetScn, rate, label, e21FleetDur, rate, killLine))
		fr, err := load.NewFleetRun(scn, cluster.Config{
			Board: core.SystemConfig{
				Dims:            noc.Dims{W: 3, H: 3},
				ManagedMemBytes: 1 << 20,
			},
			Link: netsim.LinkConfig{LatencyNs: 1000},
		})
		if err != nil {
			r.Note("fleet rate %d kill=%v: %v", rate, kill, err)
			return
		}
		fr.RunScenario(e21Drain)
		e21Row(&r, fmt.Sprintf("fleet16-r%d%s", rate, label), fr.Report()[0])
	}
	for _, rate := range e21Rates {
		fleet(rate, false)
	}
	fleet(e21Rates[1], true)

	r.Note("rates are rpMc (requests per 1e6 cycles); latency cycles are stamped from the scheduled arrival, not the send")
	r.Note("fleet16: 16 boards, 4 anti-affinity replicas of svc 40, 8 client boards sharing 1e6 sessions; kill row kills the primary replica board mid-phase")
	return r
}
