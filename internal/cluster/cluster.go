// Package cluster runs a fleet of Apiary boards — each a complete
// core.System with its own engine, NoC, kernel and private network fabric —
// joined by the simulated datacenter network and governed by an
// orchestrator (ROADMAP item 1, the Funky direction: cloud-native FPGA
// virtualization and orchestration).
//
// # Lookahead-synchronized board parallelism
//
// Boards tick concurrently on separate goroutines under conservative-PDES
// synchronization. The only way state crosses a board boundary is a netsim
// frame, and a cross-board frame pays at least the cross-board propagation
// latency L before it can be observed at the destination. That latency is
// the lookahead: the fleet advances in epochs of L cycles, every board
// free-running (idle-skip and the express bypass still apply inside the
// board) from one epoch boundary to the next with no synchronization at
// all. Frames produced during an epoch are
// staged in per-board outboxes and exchanged only at the barrier, where the
// coordinator applies them to destination engines in deterministic
// (source board ID, send order) order. Every frame's arrival cycle is
// provably past the barrier, so the exchange can never violate causality —
// and because each board's epoch run is a pure function of its own state
// plus the frames injected at prior barriers, a fleet run is bit-exact at
// any worker count and any GOMAXPROCS (TestFleetDifferential).
//
// Compare PR 2's intra-board parallelism, which pays a barrier per cycle:
// the fleet pays one barrier per ~L cycles (500 at the 1 µs default link
// latency), which is why board-level scaling is near-linear.
package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"apiary/internal/core"
	"apiary/internal/netsim"
	"apiary/internal/obs"
	"apiary/internal/sim"
)

// BoardNode is the datacenter-network address of board i's NIC. The range
// is chosen clear of the low IDs experiments use for soft endpoints on a
// board's private fabric.
func BoardNode(i int) netsim.NodeID { return netsim.NodeID(0x1000 + i) }

// Config parameterizes a fleet.
type Config struct {
	// Boards is the fleet size.
	Boards int
	// Workers is how many goroutines tick boards concurrently. 0 means
	// GOMAXPROCS. A fleet run is bit-exact at any worker count — Workers
	// is a pure speedup knob and the simulator's only host parallelism.
	Workers int
	// Seed is the fleet master seed; each board's engine seed and fabric
	// loss seed are derived from it, so boards never share RNG streams.
	Seed uint64
	// Board is the per-board template (mesh dims, detectors,
	// span sampling, ...). Seed, NodeID, WithNet, ExtFabric, NetSeed and
	// LinkLatencyNs are overridden per board by the fleet.
	Board core.SystemConfig
	// Link is every board's uplink into the cluster spine. LatencyNs sets
	// the lookahead (default 1000 ns => 500-cycle epochs at 250 MHz);
	// Gbps defaults to the board's Ethernet line rate. LossProb applies
	// to cross-board frames, drawn from the fleet RNG in deterministic
	// exchange order.
	Link netsim.LinkConfig
	// DetectEpochs is how many epochs after a board dies the orchestrator
	// notices and fails its services over (health-probe latency). Default 2.
	DetectEpochs int
}

// relay is one cross-board frame staged for the next barrier exchange.
type relay struct {
	fr  netsim.Frame
	at  sim.Cycle // absolute arrival cycle at the destination engine
	dst int       // destination board
}

// Board is one Apiary instance in the fleet.
type Board struct {
	ID   int
	Sys  *core.System
	Node netsim.NodeID

	fleet     *Fleet
	dead      bool
	deadEpoch uint64
	outbox    []relay // staged by this board's goroutine, drained at barriers
}

// Dead reports whether the board has been killed.
func (b *Board) Dead() bool { return b.dead }

// RemoteLink implements netsim.Gateway: any registered fleet node is
// reachable over the uniform cluster link.
func (b *Board) RemoteLink(dst netsim.NodeID) (netsim.LinkConfig, bool) {
	if _, ok := b.fleet.nodeBoard[dst]; !ok {
		return netsim.LinkConfig{}, false
	}
	return b.fleet.cfg.Link, true
}

// Forward implements netsim.Gateway: the frame left this board's uplink at
// depart; it arrives after cross-board propagation, which is at least one
// full epoch — the conservative-lookahead invariant.
func (b *Board) Forward(fr netsim.Frame, depart sim.Cycle) {
	b.outbox = append(b.outbox, relay{
		fr: fr, at: depart + b.fleet.prop, dst: b.fleet.nodeBoard[fr.Dst],
	})
}

type scheduledKill struct {
	board int
	at    sim.Cycle
}

// Fleet is a running multi-board cluster.
type Fleet struct {
	cfg       Config
	boards    []*Board
	nodeBoard map[netsim.NodeID]int
	epoch     sim.Cycle // lookahead: cycles per synchronization round
	prop      sim.Cycle // cross-board propagation (== epoch)
	now       sim.Cycle
	epochN    uint64
	rng       *sim.RNG // cross-board loss draws (deterministic order)
	dir       *Directory
	orch      *Orchestrator
	kills     []scheduledKill
	agg       *obs.Aggregator

	// linkLog records traced frames' cluster-link traversals, written by the
	// coordinator during exchange (deterministic order). Bounded: the first
	// linkCap hops are kept, later ones only counted.
	linkLog   []obs.LinkHop
	linkCap   int
	linkTotal uint64

	// OnEpoch, when set, runs on the coordinator after every barrier
	// (exchange + orchestrator scan) — the deterministic place for
	// experiment logic to intervene mid-run.
	OnEpoch func(now sim.Cycle)

	relayed uint64
	lost    uint64
	toDead  uint64
}

// mix64 is the splitmix64 finalizer — the per-board seed deriver.
func mix64(v uint64) uint64 {
	v += 0x9E3779B97F4A7C15
	v ^= v >> 30
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 27
	v *= 0x94D049BB133111EB
	v ^= v >> 31
	if v == 0 {
		v = 1
	}
	return v
}

// New boots a fleet: cfg.Boards systems, each with a private fabric gated
// into the cluster interconnect, plus the service directory and the
// orchestrator.
func New(cfg Config) (*Fleet, error) {
	if cfg.Boards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 board, got %d", cfg.Boards)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Link.LatencyNs == 0 {
		cfg.Link.LatencyNs = 1000
	}
	if cfg.DetectEpochs == 0 {
		cfg.DetectEpochs = 2
	}
	f := &Fleet{
		cfg:       cfg,
		nodeBoard: make(map[netsim.NodeID]int),
		rng:       sim.NewRNG(mix64(cfg.Seed ^ 0xF1EE7)),
		dir:       NewDirectory(),
		agg:       obs.NewAggregator(),
		linkCap:   defaultLinkLogCap,
	}
	for i := 0; i < cfg.Boards; i++ {
		bc := cfg.Board
		bc.Seed = mix64(cfg.Seed ^ (uint64(i)<<20 | 1))
		bc.NetSeed = mix64(cfg.Seed ^ (uint64(i)<<20 | 2))
		bc.NodeID = BoardNode(i)
		bc.WithNet = true
		bc.ExtFabric = nil
		bc.LinkLatencyNs = cfg.Link.LatencyNs
		sys, err := core.NewSystem(bc)
		if err != nil {
			return nil, fmt.Errorf("cluster: board %d: %w", i, err)
		}
		b := &Board{ID: i, Sys: sys, Node: bc.NodeID, fleet: f}
		f.boards = append(f.boards, b)
		f.nodeBoard[b.Node] = i
		f.agg.AddSource(obs.Source{
			Board: i, Stats: sys.Stats, Wins: sys.Windows,
			Rec: sys.Obs, Events: sys.Events,
		})
	}
	if f.cfg.Link.Gbps == 0 {
		f.cfg.Link.Gbps = f.boards[0].Sys.Board.NewEthernet().LineRateGbps()
	}
	e0 := f.boards[0].Sys.Engine
	f.prop = e0.CyclesForNanos(2 * cfg.Link.LatencyNs)
	if f.prop < 1 {
		f.prop = 1
	}
	f.epoch = f.prop
	for _, b := range f.boards {
		if b.Sys.Engine.ClockMHz() != e0.ClockMHz() {
			return nil, fmt.Errorf("cluster: boards disagree on clock frequency")
		}
		b.Sys.Fabric.SetGateway(b)
	}
	f.orch = newOrchestrator(f, cfg.DetectEpochs)
	return f, nil
}

// Board returns board i.
func (f *Fleet) Board(i int) *Board { return f.boards[i] }

// Boards reports the fleet size.
func (f *Fleet) Boards() int { return len(f.boards) }

// Epoch reports the lookahead: cycles between synchronization barriers.
func (f *Fleet) Epoch() sim.Cycle { return f.epoch }

// Now reports the fleet clock; every live board's engine agrees with it at
// barriers.
func (f *Fleet) Now() sim.Cycle { return f.now }

// Directory returns the fleet naming plane.
func (f *Fleet) Directory() *Directory { return f.dir }

// Orchestrator returns the fleet orchestrator.
func (f *Fleet) Orchestrator() *Orchestrator { return f.orch }

// Relayed reports cross-board frames delivered at barriers.
func (f *Fleet) Relayed() uint64 { return f.relayed }

// LostFrames reports cross-board frames dropped by link loss.
func (f *Fleet) LostFrames() uint64 { return f.lost }

// DroppedToDead reports cross-board frames dropped because their
// destination board was dead.
func (f *Fleet) DroppedToDead() uint64 { return f.toDead }

// RegisterNode routes an extra fabric node (a soft endpoint an experiment
// attached to some board's private fabric) for cross-board delivery.
func (f *Fleet) RegisterNode(id netsim.NodeID, board int) error {
	if b, dup := f.nodeBoard[id]; dup {
		return fmt.Errorf("cluster: node %d already on board %d", id, b)
	}
	if board < 0 || board >= len(f.boards) {
		return fmt.Errorf("cluster: no board %d", board)
	}
	f.nodeBoard[id] = board
	return nil
}

// KillBoardAt schedules whole-board loss: at the first barrier at or after
// cycle at, the board stops ticking, frames addressed to it are dropped,
// and the orchestrator (after its detection delay) fails its services over.
func (f *Fleet) KillBoardAt(board int, at sim.Cycle) {
	f.kills = append(f.kills, scheduledKill{board: board, at: at})
}

// KillBoard kills a board immediately (between runs / at an OnEpoch hook).
func (f *Fleet) KillBoard(board int) {
	b := f.boards[board]
	if !b.dead {
		b.dead = true
		b.deadEpoch = f.epochN
		f.agg.FleetEvents().Add(obs.Event{
			Cycle: f.now, Board: board, Kind: obs.EvBoardKill,
			Cause:  "injected whole-board loss",
			Detail: fmt.Sprintf("board %d stopped ticking at epoch %d", board, f.epochN),
		})
	}
}

func (f *Fleet) applyKills() {
	for _, k := range f.kills {
		if k.at <= f.now && !f.boards[k.board].dead {
			f.KillBoard(k.board)
		}
	}
}

// workerCount resolves the effective number of board-tick goroutines.
func (f *Fleet) workerCount(live int) int {
	w := f.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > live {
		w = live
	}
	return w
}

// runEpoch advances every live board by step cycles concurrently, then
// performs the barrier work: kills, frame exchange, orchestrator scan, and
// the OnEpoch hook — all on the coordinator goroutine, in deterministic
// order. The sync.WaitGroup barrier is also the happens-before edge that
// lets board goroutines read coordinator-written state (the directory)
// race-free.
func (f *Fleet) runEpoch(step sim.Cycle) {
	live := make([]*Board, 0, len(f.boards))
	for _, b := range f.boards {
		if !b.dead {
			live = append(live, b)
		}
	}
	if w := f.workerCount(len(live)); w <= 1 {
		for _, b := range live {
			b.Sys.Engine.Run(step)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(live) {
						return
					}
					live[n].Sys.Engine.Run(step)
				}
			}()
		}
		wg.Wait()
	}
	f.now += step
	f.epochN++
	f.applyKills()
	f.exchange()
	f.orch.epochTick()
	// The barrier pulse: every board goroutine is parked (the WaitGroup
	// above is the happens-before edge), so the aggregator's reads of board
	// counters are race-free and see exactly the epoch's end state.
	f.agg.Pulse(f.now)
	if f.OnEpoch != nil {
		f.OnEpoch(f.now)
	}
}

// exchange applies every staged cross-board frame to its destination
// engine. Boards are visited in ID order and each outbox preserves send
// order, so injection order — and therefore the destination engine's event
// sequence — is (source board, send seq), independent of workers.
func (f *Fleet) exchange() {
	for _, src := range f.boards {
		for _, rf := range src.outbox {
			dst := f.boards[rf.dst]
			if dst.dead {
				f.toDead++
				continue
			}
			if p := f.cfg.Link.LossProb; p > 0 && f.rng.Bool(p) {
				f.lost++
				continue
			}
			f.relayed++
			if rf.fr.Trace.Valid() {
				// Trace the cluster hop: the frame left src at the send
				// cycle (arrival minus propagation) and lands at rf.at.
				// Pure observation — recorded after the delivery decision.
				f.linkTotal++
				if len(f.linkLog) < f.linkCap {
					f.linkLog = append(f.linkLog, obs.LinkHop{
						Trace: rf.fr.Trace, SrcBoard: src.ID, DstBoard: rf.dst,
						Depart: rf.at - f.prop, Arrive: rf.at,
					})
				}
			}
			_ = dst.Sys.Fabric.InjectAt(rf.fr, rf.at)
		}
		src.outbox = src.outbox[:0]
	}
}

// Run advances the fleet n cycles in lookahead epochs.
func (f *Fleet) Run(n sim.Cycle) {
	for n > 0 {
		step := f.epoch
		if step > n {
			step = n
		}
		f.runEpoch(step)
		n -= step
	}
}

// RunUntil advances the fleet until cond holds (checked at barriers, where
// the fleet state is consistent) or the budget expires.
func (f *Fleet) RunUntil(cond func() bool, budget sim.Cycle) bool {
	for budget > 0 {
		if cond() {
			return true
		}
		step := f.epoch
		if step > budget {
			step = budget
		}
		f.runEpoch(step)
		budget -= step
	}
	return cond()
}
