package noc

import (
	"fmt"
	"sort"

	"apiary/internal/msg"
	"apiary/internal/sim"
)

// Config selects NoC construction parameters.
type Config struct {
	Dims  Dims
	Route RouteFunc // defaults to RouteXY

	// NoExpress disables the express-channel bypass (express.go), forcing
	// every packet through per-cycle flit simulation. The bypass is
	// behaviour-preserving — differential tests run with it on and off —
	// so this is an A/B knob, not a correctness switch.
	NoExpress bool
}

// Network is a complete mesh NoC: routers, links (implicit in router
// wiring) and one NetworkInterface per tile. All per-cycle state lives in
// the flat structure-of-arrays soa (state.go); routers and NIs are views.
type Network struct {
	engine  *sim.Engine
	dims    Dims
	route   RouteFunc
	routers []Router
	nis     []NetworkInterface
	soa     nocState
	stats   *sim.Stats

	// stage holds the tick phase's deferred effects; Network is both the
	// mesh's one sim.Ticker and the sim.Committer that applies them (see
	// commit.go). pool recycles Packets between Send and ejection.
	stage nocStage
	pool  pktPool

	// busyTiles counts tiles with any buffered flit; queuedNIs counts NIs
	// with packets queued. Together they make Idle O(1).
	busyTiles int
	queuedNIs int

	// Shared counters the commit phase merges the staged deltas into.
	cFlitsRouted *sim.Counter
	cPktsRouted  *sim.Counter
	cStallNoCred *sim.Counter
	cStallNoVC   *sim.Counter
	cStallFault  *sim.Counter
	cCorrupted   *sim.Counter
	cSent        *sim.Counter

	// inflight counts packets between Send and ejection, making Quiescent
	// O(1). Valid between cycles (staged deltas merge at commit).
	inflight int

	// Express-channel bypass state (express.go). noExpress mirrors
	// Config.NoExpress; committedThrough is the last fully committed cycle
	// (the cutoff a mid-flight materialization reconstructs state at);
	// faultMaxAll / armedFlips summarize open fault windows and armed
	// corruptions across every router, because a bypassed flight must see
	// none. expressWakeFn is the single reusable arrival wake-up closure.
	express          expressState
	noExpress        bool
	committedThrough sim.Cycle
	faultMaxAll      sim.Cycle
	armedFlips       int
	expressWakeFn    func(sim.Cycle)
	cExpressHits     *sim.Counter
	cExpressMat      *sim.Counter

	// spanner, when non-nil, is the flight recorder sampling packet
	// lifecycles (see span.go).
	spanner SpanSampler
}

// NewNetwork builds a W×H mesh attached to the engine. The network
// registers itself as the engine's ticker for the whole mesh (every router,
// then every NI, each in tile order) and as its Committer for the staged
// effects.
func NewNetwork(e *sim.Engine, st *sim.Stats, cfg Config) *Network {
	n := newNetwork(e, st, cfg)
	e.Register(n)
	e.RegisterCommitter(n)
	return n
}

// newNetwork builds the mesh without registering it with the engine.
func newNetwork(e *sim.Engine, st *sim.Stats, cfg Config) *Network {
	if cfg.Dims.W < 1 || cfg.Dims.H < 1 {
		panic(fmt.Sprintf("noc: invalid dims %dx%d", cfg.Dims.W, cfg.Dims.H))
	}
	route := cfg.Route
	if route == nil {
		route = RouteXY
	}
	tiles := cfg.Dims.Tiles()
	n := &Network{
		engine: e, dims: cfg.Dims, route: route, stats: st,
		routers: make([]Router, tiles),
		nis:     make([]NetworkInterface, tiles),
		soa:     newState(tiles),
	}
	n.cFlitsRouted = st.Counter("noc.flits_routed")
	n.cPktsRouted = st.Counter("noc.pkts_routed")
	n.cStallNoCred = st.Counter("noc.stall_no_credit")
	n.cStallNoVC = st.Counter("noc.stall_no_vc")
	n.cStallFault = st.Counter("noc.stall_fault")
	n.cCorrupted = st.Counter("noc.flits_corrupted")
	for i := 0; i < tiles; i++ {
		r := &n.routers[i]
		r.Coord = n.dims.Coord(msg.TileID(i))
		r.tile = int32(i)
		r.net = n
		r.neighbours = [numPorts]int32{-1, -1, -1, -1, -1}
	}
	// Wire neighbours and inter-router credit returns: a flit leaving the
	// input buffer of router B port p frees a credit at router A's output
	// (the link that filled it).
	for i := 0; i < tiles; i++ {
		r := &n.routers[i]
		for p := North; p < numPorts; p++ {
			nc := neighbour(r.Coord, p)
			if !n.dims.Contains(nc) {
				continue
			}
			nb := int32(n.dims.TileID(nc))
			r.neighbours[p] = nb
			for v := 0; v < NumVCs; v++ {
				n.soa.creditTo[int(nb)*pvCount+int(p.opposite())*NumVCs+v] =
					int32(i*pvCount + int(p)*NumVCs + v)
			}
		}
	}
	// NI views: injection credits live at the tail of soa.credits; the
	// router's Local inputs return credits there directly (same tile, and
	// the router ticks before its NI).
	for i := 0; i < tiles; i++ {
		ni := &n.nis[i]
		ni.tile = msg.TileID(i)
		ni.coord = n.routers[i].Coord
		ni.net = n
		ni.rt = &n.routers[i]
		ni.injCred = n.injCredIdx(int32(i), 0)
		for v := 0; v < NumVCs; v++ {
			ivx := i*pvCount + int(Local)*NumVCs + v
			n.soa.creditTo[ivx] = -int32(ni.injCred+v) - 2
		}
		ni.sent = st.Counter("noc.msgs_sent")
		ni.delivered = st.Counter("noc.msgs_delivered")
		ni.latency = st.Histogram("noc.msg_latency_cycles")
	}
	n.cSent = st.Counter("noc.msgs_sent")
	n.noExpress = cfg.NoExpress
	n.cExpressHits = st.Counter("noc.express_hits")
	n.cExpressMat = st.Counter("noc.express_materialized")
	// Route buffers sized for minimal (Manhattan) paths; a non-minimal
	// custom RouteFunc just grows them once.
	n.express.tiles = make([]int32, 0, cfg.Dims.W+cfg.Dims.H)
	n.express.ports = make([]Port, 0, cfg.Dims.W+cfg.Dims.H)
	n.expressWakeFn = func(sim.Cycle) {}
	return n
}

// Idle reports whether ticking the mesh would be a no-op: no tile holds
// buffered flits and no NI has packets queued.
func (n *Network) Idle() bool { return n.busyTiles == 0 && n.queuedNIs == 0 }

// Tick advances the mesh one cycle: every occupied router in tile order,
// then every NI with packets queued in tile order.
func (n *Network) Tick(now sim.Cycle) {
	for t := range n.routers {
		if n.soa.occ[t] != 0 {
			n.tickRouter(&n.routers[t], now)
		}
	}
	for t := range n.nis {
		if ni := &n.nis[t]; ni.queued != 0 {
			ni.tick(now)
		}
	}
}

// Dims reports the mesh dimensions.
func (n *Network) Dims() Dims { return n.dims }

// NI returns tile t's network interface.
func (n *Network) NI(t msg.TileID) *NetworkInterface {
	return &n.nis[int(t)]
}

// Router returns tile t's router (for tests and utilization accounting).
func (n *Network) Router(t msg.TileID) *Router {
	return &n.routers[int(t)]
}

// Quiescent reports whether no packets are queued or in flight anywhere.
// O(1): every packet is counted from Send until its tail flit ejects, which
// covers both NI injection queues and router buffers. Valid between cycles
// (RunUntil conditions, tests); mid-cycle the staged deltas have not merged
// yet.
func (n *Network) Quiescent() bool { return n.inflight == 0 }

// InFlight reports the number of packets between Send and ejection. Like
// Quiescent it is valid between cycles.
func (n *Network) InFlight() int { return n.inflight }

// VCOccupancy reports the buffered flits per virtual channel summed over
// every router input port — the windowed-telemetry view of where traffic
// classes are queued. One linear pass over the occupancy array; intended
// for periodic sampling, not per-cycle paths.
func (n *Network) VCOccupancy() [NumVCs]int {
	var occ [NumVCs]int
	for ivx, l := range n.soa.fifoLen {
		if l != 0 {
			occ[ivx%NumVCs] += int(l)
		}
	}
	if x := &n.express; x.active {
		// Virtual flits of a bypassed packet occupy exactly the buffers the
		// per-flit simulation would have them in (one flit per router ring).
		lo, hi := x.ringRange(n.expressCutoff())
		if hi >= lo {
			occ[x.vc] += hi - lo + 1
		}
	}
	return occ
}

// TileActive reports whether tile t currently holds any NoC work: buffered
// flits in its router or packets queued at its NI.
func (n *Network) TileActive(t msg.TileID) bool {
	if n.soa.occ[int(t)] != 0 || n.nis[int(t)].queued > 0 {
		return true
	}
	if x := &n.express; x.active {
		lo, hi := x.ringRange(n.expressCutoff())
		for j := lo; j <= hi; j++ {
			if x.tiles[j] == int32(t) {
				return true
			}
		}
	}
	return false
}

// LinkLoad is one directed link's traffic.
type LinkLoad struct {
	From  Coord
	Out   Port
	Flits uint64
}

// LinkUtilization reports flits forwarded per directed link (and per local
// ejection port), busiest first — the congestion heatmap behind placement
// and debugging decisions.
func (n *Network) LinkUtilization() []LinkLoad {
	cnt := 0
	for _, f := range n.soa.linkFlits {
		if f != 0 {
			cnt++
		}
	}
	out := make([]LinkLoad, 0, cnt)
	for i, f := range n.soa.linkFlits {
		if f == 0 {
			continue
		}
		t, p := i/int(numPorts), Port(i%int(numPorts))
		out = append(out, LinkLoad{From: n.routers[t].Coord, Out: p, Flits: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flits != out[j].Flits {
			return out[i].Flits > out[j].Flits
		}
		a, b := out[i], out[j]
		if a.From != b.From {
			return n.dims.TileID(a.From) < n.dims.TileID(b.From)
		}
		return a.Out < b.Out
	})
	return out
}

// HottestLink returns the most-used inter-router link (zero LinkLoad if the
// network is unused). Single O(links) max-scan; scanning tiles in order
// with a strict > comparison resolves equal-traffic ties to the lowest
// tile ID, then the lowest port, matching LinkUtilization's sort order.
func (n *Network) HottestLink() LinkLoad {
	var best LinkLoad
	for i, f := range n.soa.linkFlits {
		p := Port(i % int(numPorts))
		if p == Local {
			continue
		}
		if f > best.Flits {
			best = LinkLoad{From: n.routers[i/int(numPorts)].Coord, Out: p, Flits: f}
		}
	}
	return best
}

// CreditInvariantViolation scans all output VCs and reports a description of
// the first credit-accounting violation found, or "" if the invariant
// holds: for an idle network every credit counter must equal BufDepth.
func (n *Network) CreditInvariantViolation() string {
	if !n.Quiescent() {
		return "network not quiescent"
	}
	for i := range n.routers {
		r := &n.routers[i]
		for p := Port(0); p < numPorts; p++ {
			if p == Local || r.neighbours[p] < 0 {
				continue // local output has no credit counter
			}
			for v := 0; v < NumVCs; v++ {
				ovx := i*pvCount + int(p)*NumVCs + v
				if got := n.soa.credits[ovx]; got != BufDepth {
					return fmt.Sprintf("router %d port %s vc %d credits=%d want %d",
						i, p, v, got, BufDepth)
				}
				if n.soa.owner[ovx] >= 0 {
					return fmt.Sprintf("router %d port %s vc %d still owned", i, p, v)
				}
			}
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		for v := 0; v < NumVCs; v++ {
			if got := n.soa.credits[ni.injCred+v]; got != BufDepth {
				return fmt.Sprintf("ni %d vc %d inj credits=%d want %d",
					ni.tile, v, got, BufDepth)
			}
		}
	}
	return ""
}
