package bench

import (
	"fmt"

	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/load"
	"apiary/internal/netsim"
	"apiary/internal/noc"
)

// E22 scenario shapes, authored in the scenario DSL like E21's. Each run
// has three phases — warm, move, cool — with the migration directive (when
// present) landing early in the move phase, so the move row captures the
// quiesce/transfer/reconfigure dip and the cool row shows the re-minted
// endpoint serving steady post-migration traffic.
const (
	e22BoardScn = `scenario e22-board%s
seed 31
sessions 4000
target svc=40 mem=4096
timeout 10000
class get weight=3 bytes=8
class put weight=1 bytes=48
phase warm dur=20000 rate=3000
phase move dur=320000 rate=3000
phase cool dur=40000 rate=2000
%s`
	e22FleetScn = `scenario e22-fleet%s
seed 47
sessions 6000
target svc=40 mem=%d
timeout 12000
fleet boards=5 replicas=2 clients=2
class get weight=8 bytes=16
class put weight=2 bytes=96
phase warm dur=24000 rate=2000
phase move dur=56000 rate=2000
phase cool dur=20000 rate=1000
%s`
)

const e22Drain = 60000 // run-out budget past scenario end

// e22Row reports the move phase (where the migration dip lands) plus the
// cool phase's goodput — the proof the re-minted endpoint kept serving.
func e22Row(r *Result, label string, rep []load.PhaseReport) {
	move, cool := rep[1], rep[2]
	r.AddRow(label,
		u(move.OfferedRpMc), u(move.GoodputRpMc),
		u(move.OK), u(move.Denied), u(move.Timeout),
		f1(move.P99), u(cool.GoodputRpMc))
}

// E22Migrate measures live migration under open-loop fire: the same
// scenario with and without a kernel-driven migration, on-board and
// cross-board, plus a chaos stall inside the reconfiguration window and a
// destination kill mid-transfer. The differential against each control row
// is the dip: goodput lost to the bounded quiesce/transfer window, with the
// cool column showing full recovery (or, for the abort row, the source
// staying authoritative). All columns are simulated cycles/counts, so the
// table sits under the -compare gate.
func E22Migrate() Result {
	r := Result{
		ID:    "e22",
		Title: "Live migration under load: goodput dip, recovery, and abort",
		Header: []string{"Run", "MoveOfferedRpMc", "MoveGoodputRpMc",
			"MoveOK", "Denied", "Timeout", "MoveP99cy", "CoolGoodputRpMc"},
	}

	board := func(label, directives string) {
		scn := e21ParseScn(fmt.Sprintf(e22BoardScn, label, directives))
		br, err := load.NewBoardRun(scn, core.SystemConfig{
			Dims:            noc.Dims{W: 4, H: 4},
			ManagedMemBytes: 1 << 20,
		})
		if err != nil {
			r.Note("board%s: %v", label, err)
			return
		}
		br.RunScenario(e22Drain)
		e22Row(&r, "board"+label, br.Report())
	}
	board("-ctl", "")
	board("-mig", "migrate at=30000\n")
	// Under fire: a chaos stall parks an east link inside the window while
	// the checkpointed app is mid-flight to its new region.
	board("-fire", "migrate at=30000\nchaos stall at=100000 tile=4 port=E dur=1500\n")

	fleet := func(label string, mem int, directives string) {
		scn := e21ParseScn(fmt.Sprintf(e22FleetScn, label, mem, directives))
		fr, err := load.NewFleetRun(scn, cluster.Config{
			Board: core.SystemConfig{
				Dims:            noc.Dims{W: 4, H: 4},
				ManagedMemBytes: 1 << 20,
			},
			Link: netsim.LinkConfig{LatencyNs: 1000},
		})
		if err != nil {
			r.Note("fleet%s: %v", label, err)
			return
		}
		fr.RunScenario(e22Drain)
		e22Row(&r, "fleet"+label, fr.Report())
	}
	fleet("-ctl", 16384, "")
	fleet("-mig", 16384, "migrate at=40000\n")
	// Abort: the snapshot (512 KiB over a ~2.5 KB/epoch link) is still
	// crossing the cluster link when the destination board dies; the source
	// resumes authoritative.
	fleet("-abort", 524288, "migrate at=26000\nkill board=4 at=32000\n")

	r.Note("move row = the phase containing the migration window; cool row goodput shows post-migration recovery")
	r.Note("on-board the app is a single instance, so the window surfaces as retryable denials (the dip); cross-board the primary shifts to the live sibling first, so the move — and its abort — is client-invisible")
	r.Note("fleet: 5 boards, 2 replicas, 2 client boards; -mig moves the primary replica to the free board; -abort kills the destination mid-transfer (source stays authoritative)")
	return r
}
