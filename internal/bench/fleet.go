package bench

import (
	"fmt"

	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/noc"
)

// E19 service/flow numbering.
const (
	e19Svc      = msg.ServiceID(100) // backend service inside each replica
	e19ProxySvc = msg.ServiceID(200) // client board's local doorway
	e19Flow     = uint16(7)
)

// e19Fleet boots a small fleet with the echo service deployed at the given
// replica count.
func e19Fleet(replicas int) (*cluster.Fleet, []cluster.Endpoint, error) {
	fl, err := cluster.New(cluster.Config{
		Boards: 4,
		Seed:   19,
		Board: core.SystemConfig{
			Dims:            noc.Dims{W: 3, H: 3},
			ManagedMemBytes: 1 << 20,
		},
		Link: netsim.LinkConfig{LatencyNs: 1000},
	})
	if err != nil {
		return nil, nil, err
	}
	eps, err := fl.Orchestrator().DeployService(cluster.ServiceDeployment{
		Name: "echo", Svc: e19Svc, Flow: e19Flow, Replicas: replicas,
		Spec: e19ReplicaSpec,
	})
	if err != nil {
		return nil, nil, err
	}
	return fl, eps, nil
}

// e19ReplicaSpec builds one echo replica app (shared with E20).
func e19ReplicaSpec(r int) core.AppSpec {
	return core.AppSpec{
		Name: fmt.Sprintf("echo-r%d", r),
		Accels: []core.AppAccel{{
			Name: "stage", Service: e19Svc,
			New: func() accel.Accelerator {
				return apps.NewStage(apps.StageConfig{
					Name:    "echo",
					Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
				})
			},
		}},
	}
}

// e19Client is a resilient requester: app-level retries cover both the
// failover window and requests the dead board swallowed.
func e19Client(total int) *apps.Requester {
	req := apps.NewRequester(e19ProxySvc, total, 64,
		func(i int) []byte { return []byte{byte(i), 0xE1, 0x9F} }, nil)
	req.RetryNacks = true
	req.RetryLimit = 10
	req.TimeoutCycles = 6000
	req.BackoffBase = 256
	return req
}

// E19Fleet measures the multi-board fleet: cross-board RPC cost against the
// intra-board baseline, and request survival across a whole-board kill with
// a cross-board replica group. All columns are simulated (cycles/counts),
// so the row set sits under the cross-host -compare trajectory gate.
func E19Fleet() Result {
	r := Result{
		ID:    "e19",
		Title: "Multi-board fleet: cross-board RPC and whole-board failover",
		Header: []string{"Scenario", "Boards", "Requests", "OK", "Errs",
			"CompleteCy", "Failovers", "XBoardFrames", "DroppedToDead"},
	}
	const total = 12

	// Intra-board baseline: requester and service on one board, no network.
	{
		fl, _, err := e19Fleet(1)
		if err != nil {
			r.Note("fleet boot failed: %v", err)
			return r
		}
		req := e19Client(total)
		// The baseline is one self-contained app — stage and requester on
		// the same board, same-app connect, no network anywhere.
		const localSvc = msg.ServiceID(101)
		req.Target = localSvc
		_, err = fl.Orchestrator().PlaceApp(core.AppSpec{
			Name: "local",
			Accels: []core.AppAccel{
				{Name: "stage", Service: localSvc,
					New: func() accel.Accelerator {
						return apps.NewStage(apps.StageConfig{
							Name:    "echo",
							Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
						})
					}},
				{Name: "req", Connect: []msg.ServiceID{localSvc},
					New: func() accel.Accelerator { return req }},
			},
		})
		if err != nil {
			r.Note("local client load failed: %v", err)
			return r
		}
		fl.RunUntil(req.Done, 400_000)
		r.AddRow("intra-board", d(fl.Boards()), d(total), d(req.Responses()),
			d(req.Errors()), u(uint64(fl.Now())), u(fl.Orchestrator().Failovers()),
			u(fl.Relayed()), u(fl.DroppedToDead()))
	}

	// Cross-board RPC: client on another board, through the proxy + bridge.
	{
		fl, eps, err := e19Fleet(1)
		if err != nil {
			r.Note("fleet boot failed: %v", err)
			return r
		}
		req := e19Client(total)
		if err := e19Attach(fl, eps, req); err != nil {
			r.Note("remote client attach failed: %v", err)
			return r
		}
		fl.RunUntil(req.Done, 400_000)
		r.AddRow("cross-board", d(fl.Boards()), d(total), d(req.Responses()),
			d(req.Errors()), u(uint64(fl.Now())), u(fl.Orchestrator().Failovers()),
			u(fl.Relayed()), u(fl.DroppedToDead()))
	}

	// Whole-board kill: two replicas on distinct boards; the primary's board
	// dies mid-run and the orchestrator re-binds to the survivor.
	{
		fl, eps, err := e19Fleet(2)
		if err != nil {
			r.Note("fleet boot failed: %v", err)
			return r
		}
		req := e19Client(total)
		if err := e19Attach(fl, eps, req); err != nil {
			r.Note("remote client attach failed: %v", err)
			return r
		}
		fl.KillBoardAt(eps[0].Board, 1500)
		fl.RunUntil(req.Done, 800_000)
		r.AddRow("board-kill", d(fl.Boards()), d(total), d(req.Responses()),
			d(req.Errors()), u(uint64(fl.Now())), u(fl.Orchestrator().Failovers()),
			u(fl.Relayed()), u(fl.DroppedToDead()))
		r.Note("epoch (lookahead) = %d cycles; board %d killed at cycle 1500, detection after %d epochs",
			fl.Epoch(), eps[0].Board, 2)
	}

	r.Note("cross-board RPC pays 2 cluster traversals (request + reply), each >= 1 epoch")
	r.Note("failover: replica group spans boards, so requests outlive a whole-board loss")
	return r
}

// e19Attach places the client on a board without a replica, behind a
// directory-resolving proxy.
func e19Attach(fl *cluster.Fleet, eps []cluster.Endpoint, req *apps.Requester) error {
	hosts := map[int]bool{}
	for _, ep := range eps {
		hosts[ep.Board] = true
	}
	board := -1
	for i := 0; i < fl.Boards(); i++ {
		if !hosts[i] {
			board = i
			break
		}
	}
	if board < 0 {
		return fmt.Errorf("no board free of replicas")
	}
	if err := fl.Orchestrator().ConnectClient(board, e19ProxySvc, "echo"); err != nil {
		return err
	}
	_, err := fl.Board(board).Sys.Kernel.LoadApp(core.AppSpec{
		Name: "client",
		Accels: []core.AppAccel{{
			Name: "req", Connect: []msg.ServiceID{e19ProxySvc},
			New: func() accel.Accelerator { return req },
		}},
	})
	return err
}
