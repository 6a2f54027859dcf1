package cluster

import (
	"fmt"
	"strings"
	"testing"

	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/core"
	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/noc"
)

const (
	kvSvc    = msg.ServiceID(100) // backend service inside each replica app
	proxySvc = msg.ServiceID(200) // client boards' local doorway to "kv"
	kvFlow   = uint16(7)
)

func fleetCfg(boards int, seed uint64, workers int) Config {
	return Config{
		Boards:  boards,
		Workers: workers,
		Seed:    seed,
		Board: core.SystemConfig{
			Dims: noc.Dims{W: 3, H: 3},
			// The DRAM model stores real bytes; the default 64 MiB window
			// times 16 boards is pure construction cost for tests that
			// never touch memory.
			ManagedMemBytes: 1 << 20,
			SpanSampleEvery: 4,
		},
		Link: netsim.LinkConfig{LatencyNs: 1000},
	}
}

func kvDeployment(replicas int) ServiceDeployment {
	return ServiceDeployment{
		Name: "kv", Svc: kvSvc, Flow: kvFlow, Replicas: replicas,
		Spec: func(r int) core.AppSpec {
			return core.AppSpec{
				Name: fmt.Sprintf("kv-r%d", r),
				Accels: []core.AppAccel{{
					Name: "store", Service: kvSvc,
					New: func() accel.Accelerator {
						return apps.NewStage(apps.StageConfig{
							Name:    "kv",
							Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
						})
					},
				}},
			}
		},
	}
}

// addClient wires board b to the fleet "kv" service — proxy app plus a
// requester app issuing total requests — and returns the requester.
func addClient(t *testing.T, fl *Fleet, b, total int, tune func(*apps.Requester)) *apps.Requester {
	t.Helper()
	if err := fl.Orchestrator().ConnectClient(b, proxySvc, "kv"); err != nil {
		t.Fatalf("ConnectClient(board %d): %v", b, err)
	}
	req := apps.NewRequester(proxySvc, total, 64,
		func(i int) []byte { return []byte{byte(i), byte(b), 0xAB} }, nil)
	if tune != nil {
		tune(req)
	}
	spec := core.AppSpec{
		Name: "client",
		Accels: []core.AppAccel{{
			Name:    "req",
			Connect: []msg.ServiceID{proxySvc},
			New:     func() accel.Accelerator { return req },
		}},
	}
	if _, err := fl.Board(b).Sys.Kernel.LoadApp(spec); err != nil {
		t.Fatalf("load client on board %d: %v", b, err)
	}
	return req
}

// fingerprint renders everything observable about a fleet run: fleet
// counters, every board's full stats dump, every sampled message span, and
// every client's outcome. Two bit-exact runs produce identical strings.
func fingerprint(fl *Fleet, reqs []*apps.Requester) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d relayed=%d lost=%d toDead=%d rebinds=%d failovers=%d\n",
		fl.Now(), fl.Relayed(), fl.LostFrames(), fl.DroppedToDead(),
		fl.Directory().Rebinds(), fl.Orchestrator().Failovers())
	for i := 0; i < fl.Boards(); i++ {
		sys := fl.Board(i).Sys
		fmt.Fprintf(&b, "== board %d ==\n%s", i, sys.Stats.String())
		for _, en := range sys.Obs.Entries() {
			sp := en.Span
			fmt.Fprintf(&b, "span %d->%d t%d seq%d q%d e%d h%d r%v\n",
				sp.Src, sp.Dst, sp.Type, sp.Seq, sp.Queued, sp.Eject, len(sp.Hops), en.Reply)
		}
	}
	for i, r := range reqs {
		fmt.Fprintf(&b, "client %d: resp=%d errs=%d\n", i, r.Responses(), r.Errors())
	}
	return b.String()
}

// runFleet boots a 16-board fleet, deploys the kv service with 2 replicas,
// attaches 4 client boards, runs to completion and returns the fingerprint.
func runFleet(t *testing.T, seed uint64, workers int) string {
	t.Helper()
	fl, err := New(fleetCfg(16, seed, workers))
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
		t.Fatalf("seed=%d workers=%d: clients not done by budget", seed, workers)
	}
	for i, r := range reqs {
		if r.Responses() != 5 || r.Errors() != 0 {
			t.Fatalf("client %d: resp=%d errs=%d, want 5/0", i, r.Responses(), r.Errors())
		}
	}
	if fl.Relayed() == 0 {
		t.Fatalf("no cross-board frames relayed — RPCs did not leave the board")
	}
	return fingerprint(fl, reqs)
}

// TestFleetDifferential is the fleet determinism gate: a 16-board fleet is
// bit-exact — counters, histograms, sampled span timings, client outcomes —
// between a 1-worker run and a many-worker run, across seeds. Goroutine
// scheduling must be invisible.
func TestFleetDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 99} {
		serial := runFleet(t, seed, 1)
		parallel := runFleet(t, seed, 4)
		if serial != parallel {
			t.Errorf("seed=%d: workers=1 and workers=4 fleets diverged\n--- serial ---\n%s\n--- parallel ---\n%s",
				seed, firstDiff(serial, parallel), firstDiff(parallel, serial))
		}
	}
}

// firstDiff trims a fingerprint to the region around its first divergence
// from other, keeping failure output readable.
func firstDiff(s, other string) string {
	i := 0
	for i < len(s) && i < len(other) && s[i] == other[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(s) {
		hi = len(s)
	}
	return fmt.Sprintf("...%s...", s[lo:hi])
}

// TestFleetEpochLookahead pins the epoch computation: 1000 ns each way at
// the default 250 MHz clock is 500 cycles of lookahead.
func TestFleetEpochLookahead(t *testing.T) {
	fl, err := New(fleetCfg(2, 1, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if fl.Epoch() != 500 {
		t.Fatalf("epoch = %d, want 500", fl.Epoch())
	}
	fl.Run(1234)
	if fl.Now() != 1234 {
		t.Fatalf("Now = %d after Run(1234)", fl.Now())
	}
	if got := fl.Board(0).Sys.Engine.Now(); got != 1234 {
		t.Fatalf("board engine at %d, want 1234", got)
	}
}

// TestFleetFailover kills the primary's whole board mid-run and checks the
// replica group spans boards: the orchestrator re-binds after its detection
// delay and resilient clients finish every request through the surviving
// replica.
func TestFleetFailover(t *testing.T) {
	fl, err := New(fleetCfg(6, 7, 2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eps, err := fl.Orchestrator().DeployService(kvDeployment(2))
	if err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	req := addClient(t, fl, 3, 12, func(r *apps.Requester) {
		r.RetryNacks = true
		r.RetryLimit = 10
		r.TimeoutCycles = 6000
		r.BackoffBase = 256
	})
	// Let a few requests land on the primary, then lose its whole board
	// while later requests are still in flight.
	primary := eps[0].Board
	fl.KillBoardAt(primary, 1500)
	if !fl.RunUntil(req.Done, 600_000) {
		t.Fatalf("client not done: resp=%d errs=%d failovers=%d",
			req.Responses(), req.Errors(), fl.Orchestrator().Failovers())
	}
	if req.Responses() != 12 {
		t.Fatalf("resp=%d errs=%d, want 12 responses", req.Responses(), req.Errors())
	}
	if !fl.Board(primary).Dead() {
		t.Fatalf("board %d should be dead", primary)
	}
	if got := fl.Orchestrator().Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if ep, _ := fl.Directory().Lookup("kv"); ep.Board != eps[1].Board {
		t.Fatalf("directory primary on board %d, want %d", ep.Board, eps[1].Board)
	}
	if fl.DroppedToDead() == 0 {
		t.Fatalf("expected frames dropped to the dead board during the detection window")
	}
}

// TestFleetCrossBoardLoss drops a fraction of cluster frames; the reliable
// transport retransmits and clients still finish.
func TestFleetCrossBoardLoss(t *testing.T) {
	cfg := fleetCfg(4, 11, 2)
	cfg.Link.LossProb = 0.2
	fl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := fl.Orchestrator().DeployService(kvDeployment(1)); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	req := addClient(t, fl, 2, 4, nil)
	if !fl.RunUntil(req.Done, 1_500_000) {
		t.Fatalf("client not done under loss: resp=%d", req.Responses())
	}
	if req.Responses() != 4 {
		t.Fatalf("resp=%d, want 4", req.Responses())
	}
	if fl.LostFrames() == 0 {
		t.Fatalf("LossProb=0.2 but no frames lost")
	}
}

// TestOrchestratorSpread checks the load balancer: equal boards receive
// successive apps round-robin (most-free, lowest ID).
func TestOrchestratorSpread(t *testing.T) {
	fl, err := New(fleetCfg(4, 1, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 4; i++ {
		spec := core.AppSpec{
			Name: fmt.Sprintf("app%d", i),
			Accels: []core.AppAccel{{
				Name: "s",
				New: func() accel.Accelerator {
					return apps.NewStage(apps.StageConfig{
						Name:    "s",
						Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
					})
				},
			}},
		}
		board, err := fl.Orchestrator().PlaceApp(spec)
		if err != nil {
			t.Fatalf("PlaceApp %d: %v", i, err)
		}
		if board != i {
			t.Fatalf("app %d placed on board %d, want %d (spread)", i, board, i)
		}
	}
}

// TestPlaceManifest routes the JSON manifest path through the orchestrator.
func TestPlaceManifest(t *testing.T) {
	fl, err := New(fleetCfg(2, 1, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	data := []byte(`[
		{"name":"m0","accels":[{"name":"e","kind":"echo","service":300}]},
		{"name":"m1","accels":[{"name":"e","kind":"echo","service":300}]}
	]`)
	placed, err := fl.Orchestrator().PlaceManifest(data)
	if err != nil {
		t.Fatalf("PlaceManifest: %v", err)
	}
	if len(placed) != 2 || placed[0].Board == placed[1].Board {
		t.Fatalf("placements %+v: want the two apps on different boards", placed)
	}
}

// TestDeployAntiAffinity: replicas must land on distinct boards, so a
// 3-replica service cannot fit a 2-board fleet.
func TestDeployAntiAffinity(t *testing.T) {
	fl, err := New(fleetCfg(2, 1, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := fl.Orchestrator().DeployService(kvDeployment(3)); err == nil {
		t.Fatalf("3 replicas on 2 boards should fail anti-affinity")
	}
}

// TestConnectClientCollision: a board hosting a replica cannot also host a
// proxy for the same service (the flow would collide).
func TestConnectClientCollision(t *testing.T) {
	fl, err := New(fleetCfg(3, 1, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eps, err := fl.Orchestrator().DeployService(kvDeployment(1))
	if err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	if err := fl.Orchestrator().ConnectClient(eps[0].Board, proxySvc, "kv"); err == nil {
		t.Fatalf("proxy on a backend board should be rejected")
	}
}

// TestDirectory covers the naming plane in isolation.
func TestDirectory(t *testing.T) {
	d := NewDirectory()
	if err := d.Register("svc", Endpoint{Board: 0, Addr: msg.NetAddr{Node: 0x1000, Flow: 7}},
		Endpoint{Board: 3, Addr: msg.NetAddr{Node: 0x1003, Flow: 7}}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := d.Register("svc"); err == nil {
		t.Fatalf("duplicate Register should fail")
	}
	if ep, ok := d.Lookup("svc"); !ok || ep.Board != 0 {
		t.Fatalf("Lookup = %+v %v, want board 0 primary", ep, ok)
	}
	resolve := d.Resolver("svc")
	if a := resolve(); a.Node != 0x1000 {
		t.Fatalf("Resolver = %+v, want node 0x1000", a)
	}
	if err := d.SetPrimary("svc", 1); err != nil {
		t.Fatalf("SetPrimary: %v", err)
	}
	if a := resolve(); a.Node != 0x1003 {
		t.Fatalf("Resolver after re-bind = %+v, want node 0x1003", a)
	}
	if d.Rebinds() != 1 {
		t.Fatalf("Rebinds = %d, want 1", d.Rebinds())
	}
	if a := d.Resolver("nope")(); a != (msg.NetAddr{}) {
		t.Fatalf("unknown service resolved to %+v", a)
	}
	if err := d.SetPrimary("svc", 9); err == nil {
		t.Fatalf("SetPrimary out of range should fail")
	}
	if got := d.Names(); len(got) != 1 || got[0] != "svc" {
		t.Fatalf("Names = %v", got)
	}
}

// TestRegisterNode covers fleet node routing for extra soft endpoints.
func TestRegisterNode(t *testing.T) {
	fl, err := New(fleetCfg(2, 1, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.RegisterNode(netsim.NodeID(500), 1); err != nil {
		t.Fatalf("RegisterNode: %v", err)
	}
	if err := fl.RegisterNode(netsim.NodeID(500), 0); err == nil {
		t.Fatalf("duplicate node registration should fail")
	}
	if err := fl.RegisterNode(netsim.NodeID(501), 9); err == nil {
		t.Fatalf("registration on a missing board should fail")
	}
	if _, ok := fl.Board(0).RemoteLink(netsim.NodeID(500)); !ok {
		t.Fatalf("registered node should be reachable from other boards")
	}
	if _, ok := fl.Board(0).RemoteLink(netsim.NodeID(999)); ok {
		t.Fatalf("unknown node should be unreachable")
	}
}
