package obs

import (
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// WindowConfig sizes the windowed time-series sampler.
type WindowConfig struct {
	// Every is the sampling period in cycles (<= 0 disables sampling).
	Every sim.Cycle
	// Keep bounds the snapshot ring (default DefaultWindowKeep).
	Keep int
}

// DefaultWindowKeep is the default snapshot ring capacity.
const DefaultWindowKeep = 256

// linkKey identifies a directed link for windowed deltas.
type linkKey struct {
	From noc.Coord
	Out  noc.Port
}

// LinkWindow is one directed link's traffic within a single window.
type LinkWindow struct {
	From  noc.Coord
	Out   noc.Port
	Flits uint64
}

// Snapshot is one sampling window's view of the system: per-link flit
// deltas, per-VC buffer occupancy, per-tile activity, and windowed deltas of
// the monitor and NoC counters. All values except VC occupancy and TilesBusy
// (instantaneous) are deltas over [Cycle-Window, Cycle).
type Snapshot struct {
	Cycle  sim.Cycle
	Window sim.Cycle

	Links     []LinkWindow // links with nonzero flits this window, tile order
	VCOcc     [noc.NumVCs]int
	TilesBusy int
	Tiles     int
	InFlight  int

	Sent         uint64 // noc.msgs_sent delta
	Delivered    uint64 // noc.msgs_delivered delta
	Denied       uint64 // mon.denied delta
	RateDrops    uint64 // mon.rate_drops delta
	Forwarded    uint64 // mon.forwarded delta
	Faults       uint64 // mon.faults delta
	Injected     uint64 // fault.injected delta
	Shed         uint64 // shell.shed delta (admission-control load sheds)
	Failovers    uint64 // kernel.failovers delta (replica-group re-binds)
	BreakerOpens uint64 // apps.breaker_opens delta (client circuit trips)

	ExpressHits         uint64 // noc.express_hits delta (bypass-scheduled packets)
	ExpressMaterialized uint64 // noc.express_materialized delta (bypasses forced back)
}

// windowCounters are the counters snapshotted as per-window deltas.
var windowCounters = []string{
	"noc.msgs_sent", "noc.msgs_delivered",
	"mon.denied", "mon.rate_drops", "mon.forwarded",
	"mon.faults", "fault.injected",
	"shell.shed", "kernel.failovers", "apps.breaker_opens",
	"noc.express_hits", "noc.express_materialized",
}

// Windows samples the NoC and monitor state every N cycles into a bounded
// ring of Snapshots. It registers a self-rescheduling engine event, so
// sampling happens between cycles, after the previous cycle's commit — a
// consistent global view, safe to combine with idle-skip (events bound the
// fast-forward).
// Like the recorder it is pure observation: no simulation state changes.
type Windows struct {
	net   *noc.Network
	st    *sim.Stats
	every sim.Cycle

	ring []Snapshot
	keep int
	next int
	full bool

	prevLink map[linkKey]uint64
	prevCtr  map[string]uint64
}

// NewWindows attaches a sampler to the engine. Call before the first cycle.
// Returns nil if cfg.Every <= 0 (sampling disabled); all methods on a nil
// *Windows are safe no-ops.
func NewWindows(e *sim.Engine, net *noc.Network, st *sim.Stats, cfg WindowConfig) *Windows {
	if cfg.Every <= 0 {
		return nil
	}
	keep := cfg.Keep
	if keep <= 0 {
		keep = DefaultWindowKeep
	}
	w := &Windows{
		net: net, st: st, every: cfg.Every, keep: keep,
		prevLink: make(map[linkKey]uint64),
		prevCtr:  make(map[string]uint64),
	}
	var fire func(now sim.Cycle)
	fire = func(now sim.Cycle) {
		w.sample(now)
		e.After(w.every, fire)
	}
	e.After(w.every, fire)
	return w
}

// Every reports the sampling period (0 when disabled).
func (w *Windows) Every() sim.Cycle {
	if w == nil {
		return 0
	}
	return w.every
}

// sample takes one snapshot. Runs as an engine event (main goroutine,
// between cycles).
func (w *Windows) sample(now sim.Cycle) {
	dims := w.net.Dims()
	s := Snapshot{
		Cycle: now, Window: w.every,
		VCOcc:    w.net.VCOccupancy(),
		Tiles:    dims.W * dims.H,
		InFlight: w.net.InFlight(),
	}
	for t := 0; t < s.Tiles; t++ {
		if w.net.TileActive(msg.TileID(t)) {
			s.TilesBusy++
		}
	}
	// Per-link deltas against the cumulative counters. LinkUtilization
	// reports links busiest-first; re-keying through the map and appending in
	// its order keeps output deterministic (ties broken by tile ID upstream).
	for _, l := range w.net.LinkUtilization() {
		k := linkKey{l.From, l.Out}
		if d := l.Flits - w.prevLink[k]; d > 0 {
			s.Links = append(s.Links, LinkWindow{From: l.From, Out: l.Out, Flits: d})
		}
		w.prevLink[k] = l.Flits
	}
	deltas := make([]uint64, len(windowCounters))
	for i, name := range windowCounters {
		v := w.st.Counter(name).Value()
		deltas[i] = v - w.prevCtr[name]
		w.prevCtr[name] = v
	}
	s.Sent, s.Delivered, s.Denied, s.RateDrops, s.Forwarded =
		deltas[0], deltas[1], deltas[2], deltas[3], deltas[4]
	s.Faults, s.Injected = deltas[5], deltas[6]
	s.Shed, s.Failovers, s.BreakerOpens = deltas[7], deltas[8], deltas[9]
	s.ExpressHits, s.ExpressMaterialized = deltas[10], deltas[11]

	if len(w.ring) < w.keep {
		w.ring = append(w.ring, s)
		return
	}
	w.full = true
	w.ring[w.next] = s
	w.next = (w.next + 1) % w.keep
}

// Latest returns the most recent snapshot, or nil before the first window.
func (w *Windows) Latest() *Snapshot {
	if w == nil || len(w.ring) == 0 {
		return nil
	}
	i := len(w.ring) - 1
	if w.full {
		i = (w.next - 1 + w.keep) % w.keep
	}
	return &w.ring[i]
}

// Snapshots returns the retained snapshots oldest-first.
func (w *Windows) Snapshots() []Snapshot {
	if w == nil {
		return nil
	}
	if !w.full {
		return append([]Snapshot(nil), w.ring...)
	}
	out := make([]Snapshot, 0, w.keep)
	out = append(out, w.ring[w.next:]...)
	out = append(out, w.ring[:w.next]...)
	return out
}
