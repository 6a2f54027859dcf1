// Package load implements Apiary's open-loop traffic harness: an
// arrival-rate-driven generator that models 10^5-10^6 synthetic client
// sessions as lightweight records multiplexed over a pooled requester tile,
// a scenario DSL (phases with ramps, bursts, diurnal cycles, request-class
// mixes, board kills, and cross-products with internal/fault chaos plans)
// compiled the same way fault plans are, and record/replay of the delivered
// request stream with a client-visible fingerprint.
//
// Everything runs on the engine clock. Arrivals are emitted by a per-cycle
// fixed-point accumulator (integer math only), so a scenario run is
// deterministic and bit-exact at any fleet worker count, and
// latency is measured from the scheduled arrival cycle — not the send
// cycle — which makes the harness immune to coordinated omission: a slow
// server cannot make the generator stop asking.
package load

import (
	"fmt"
	"sort"
	"strings"

	"apiary/internal/fault"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// Rate units: offered rates throughout this package are integer requests
// per 1e6 cycles ("rpMc"). At the simulator's nominal 1 GHz that reads as
// requests per millisecond. Rates convert to a Q32 fixed-point per-cycle
// increment, so arrival emission is pure integer math — no float drift, no
// libm variance across hosts — and the committed golden fingerprint is
// bit-stable everywhere.
const rateQ = 32

// incQ32 converts an rpMc rate to the Q32 per-cycle accumulator increment.
func incQ32(rpMc uint64) uint64 { return (rpMc << rateQ) / 1_000_000 }

// Class is one request class in the scenario mix: a name, a relative
// weight, and a payload size. Each arrival draws a class from the weighted
// mix using the generator's seeded RNG.
type Class struct {
	Name   string
	Weight int // relative weight, >= 1
	Bytes  int // request payload bytes (1..msg.MaxPayload)
}

// Burst is a periodic additive rate spike: for the first Dur cycles of
// every Period, Rate (rpMc) is added to the phase's base rate.
type Burst struct {
	Rate   uint64    // additional rpMc while bursting
	Period sim.Cycle // cycle between burst starts
	Dur    sim.Cycle // burst length, < Period
}

// Diurnal is a triangle-wave rate modulation with the given period and
// swing: the effective rate oscillates base-swing..base+swing (clamped at
// zero). A triangle, not a sinusoid, on purpose: it needs no floating
// point, so the modulation is bit-identical on every host.
type Diurnal struct {
	Period sim.Cycle
	Swing  uint64 // rpMc amplitude
}

// Phase is one scenario segment: Dur cycles at a rate that ramps linearly
// RateFrom -> RateTo, optionally modulated by a burst train and a diurnal
// cycle.
type Phase struct {
	Name     string
	Dur      sim.Cycle
	RateFrom uint64 // rpMc at phase start
	RateTo   uint64 // rpMc at phase end (== RateFrom for a flat phase)
	Burst    *Burst
	Diurnal  *Diurnal
}

// Kill schedules a whole-board kill (fleet scenarios only; single-board
// runs reject scenarios with kills).
type Kill struct {
	Board int
	At    sim.Cycle
}

// Migration schedules a live migration of the scenario's backend while the
// load is offered. On a single board the kernel moves the backend app to a
// new region; in a fleet the orchestrator moves replica Replica to an
// auto-picked board. Requests caught in the quiesce window bounce with the
// retryable EQuiescing and ride client backoff — the goodput dip, not a
// loss, is the measurement.
type Migration struct {
	At      sim.Cycle
	Replica int // fleet: backend index to move (single-board runs require 0)
}

// Drain schedules a whole-board maintenance drain (fleet scenarios only):
// every deployed replica on the board live-migrates off it.
type Drain struct {
	Board int
	At    sim.Cycle
}

// FleetSpec sizes the fleet a scenario asks for: Boards total, the target
// service replicated Replicas times (anti-affinity spread), and Clients
// generator boards, each carrying an equal share of the offered rate and of
// the session population.
type FleetSpec struct {
	Boards   int
	Replicas int
	Clients  int
}

// Scenario is a complete compiled scenario: the workload shape (phases ×
// classes over a session population), the topology it runs on, and the
// failure schedule (board kills plus an optional chaos plan, the
// cross-product with internal/fault).
type Scenario struct {
	Name     string
	Seed     uint64
	Sessions int           // synthetic session population (records, not goroutines)
	Target   msg.ServiceID // service requests address (generator-local doorway in fleets)
	TgtMem   int           // backend managed-memory segment bytes (0 = none); sets snapshot weight
	Timeout  sim.Cycle     // per-request timeout from send (0 = default)
	Classes  []Class
	Phases   []Phase
	Kills    []Kill
	Migrate  []Migration
	Drains   []Drain
	Fleet    *FleetSpec
	Chaos    *fault.Plan // optional chaos cross-product, fault-plan grammar
}

// DefaultTimeout is the per-request timeout when the scenario does not set
// one.
const DefaultTimeout = sim.Cycle(20000)

// Dur is the scenario's total length in cycles.
func (s *Scenario) Dur() sim.Cycle {
	var d sim.Cycle
	for _, p := range s.Phases {
		d += p.Dur
	}
	return d
}

// PhaseAt maps a cycle offset from scenario start to (phase index, offset
// within that phase). Offsets past the end report the last phase.
func (s *Scenario) PhaseAt(t sim.Cycle) (int, sim.Cycle) {
	for i, p := range s.Phases {
		if t < p.Dur {
			return i, t
		}
		t -= p.Dur
	}
	return len(s.Phases) - 1, t
}

// NextBoundary reports the first phase boundary strictly after offset t
// (the scenario end counts as the final boundary). Offsets at or past the
// end report the total duration. Chunked drivers (apiaryd) align their run
// steps on these boundaries so HTTP endpoints never observe a torn phase.
func (s *Scenario) NextBoundary(t sim.Cycle) sim.Cycle {
	var edge sim.Cycle
	for _, p := range s.Phases {
		edge += p.Dur
		if t < edge {
			return edge
		}
	}
	return edge
}

// RateAt evaluates the effective offered rate (rpMc) at offset t from
// scenario start: the phase's linear ramp, plus its burst train when
// inside a burst window, plus/minus its diurnal triangle. Integer math
// throughout.
func (s *Scenario) RateAt(t sim.Cycle) uint64 {
	if len(s.Phases) == 0 || t >= s.Dur() {
		return 0
	}
	pi, off := s.PhaseAt(t)
	p := s.Phases[pi]
	r := int64(p.RateFrom)
	if p.RateTo != p.RateFrom && p.Dur > 0 {
		r += (int64(p.RateTo) - int64(p.RateFrom)) * int64(off) / int64(p.Dur)
	}
	if b := p.Burst; b != nil && b.Period > 0 && off%b.Period < b.Dur {
		r += int64(b.Rate)
	}
	if d := p.Diurnal; d != nil && d.Period > 0 && d.Swing > 0 {
		r += triangle(off%d.Period, d.Period, int64(d.Swing))
	}
	if r < 0 {
		return 0
	}
	return uint64(r)
}

// triangle is the diurnal wave: 0 -> +swing -> 0 -> -swing -> 0 over one
// period, evaluated at pos in [0, period).
func triangle(pos, period sim.Cycle, swing int64) int64 {
	q := 4 * swing * int64(pos) / int64(period) // 0..4*swing
	switch {
	case q <= swing:
		return q
	case q <= 3*swing:
		return 2*swing - q
	default:
		return q - 4*swing
	}
}

// TotalWeight sums the class weights.
func (s *Scenario) TotalWeight() int {
	w := 0
	for _, c := range s.Classes {
		w += c.Weight
	}
	return w
}

// Validate checks the scenario against a mesh of the given dimensions
// (chaos tile coordinates must fit the board). Dims may be zero to skip
// the chaos bounds check.
func (s *Scenario) Validate(dims noc.Dims) error {
	if s.Name == "" {
		return fmt.Errorf("load: scenario needs a name")
	}
	if s.Sessions < 1 {
		return fmt.Errorf("load: scenario needs sessions >= 1")
	}
	if s.Target == msg.SvcInvalid {
		return fmt.Errorf("load: scenario needs a target service")
	}
	if s.TgtMem < 0 {
		return fmt.Errorf("load: target mem must be >= 0")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("load: scenario needs at least one phase")
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("load: scenario needs at least one class")
	}
	for _, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("load: class needs a name")
		}
		if c.Weight < 1 {
			return fmt.Errorf("load: class %q needs weight >= 1", c.Name)
		}
		if c.Bytes < 1 || c.Bytes > msg.MaxPayload {
			return fmt.Errorf("load: class %q bytes %d outside 1..%d", c.Name, c.Bytes, msg.MaxPayload)
		}
	}
	for _, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("load: phase needs a name")
		}
		if p.Dur < 1 {
			return fmt.Errorf("load: phase %q needs dur >= 1", p.Name)
		}
		if b := p.Burst; b != nil {
			if b.Period < 1 || b.Dur < 1 || b.Dur >= b.Period {
				return fmt.Errorf("load: phase %q burst needs 0 < dur < period", p.Name)
			}
		}
		if d := p.Diurnal; d != nil && d.Period < 4 {
			return fmt.Errorf("load: phase %q diurnal needs period >= 4", p.Name)
		}
	}
	for _, k := range s.Kills {
		if k.Board < 0 {
			return fmt.Errorf("load: kill board %d out of range", k.Board)
		}
		if s.Fleet == nil {
			return fmt.Errorf("load: kill directives need a fleet stanza")
		}
		if k.Board >= s.Fleet.Boards {
			return fmt.Errorf("load: kill board %d outside %d-board fleet", k.Board, s.Fleet.Boards)
		}
	}
	for _, m := range s.Migrate {
		if m.Replica < 0 {
			return fmt.Errorf("load: migrate replica %d out of range", m.Replica)
		}
		if s.Fleet == nil && m.Replica != 0 {
			return fmt.Errorf("load: migrate replica %d needs a fleet stanza", m.Replica)
		}
		if s.Fleet != nil && m.Replica >= s.Fleet.Replicas {
			return fmt.Errorf("load: migrate replica %d outside %d replicas",
				m.Replica, s.Fleet.Replicas)
		}
	}
	for _, d := range s.Drains {
		if s.Fleet == nil {
			return fmt.Errorf("load: drain directives need a fleet stanza")
		}
		if d.Board < 0 || d.Board >= s.Fleet.Boards {
			return fmt.Errorf("load: drain board %d outside %d-board fleet", d.Board, s.Fleet.Boards)
		}
	}
	if f := s.Fleet; f != nil {
		if f.Boards < 2 {
			return fmt.Errorf("load: fleet needs boards >= 2")
		}
		if f.Replicas < 1 || f.Clients < 1 {
			return fmt.Errorf("load: fleet needs replicas >= 1 and clients >= 1")
		}
		if f.Replicas+f.Clients > f.Boards {
			return fmt.Errorf("load: fleet of %d boards cannot host %d replicas + %d clients",
				f.Boards, f.Replicas, f.Clients)
		}
	}
	if s.Chaos != nil && dims.Tiles() > 0 {
		if err := s.Chaos.Validate(dims); err != nil {
			return err
		}
	}
	return nil
}

// String renders the scenario in the text format ParseScenario accepts —
// the same lossless round-trip contract the fault-plan grammar keeps.
func (s *Scenario) String() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "scenario %s\n", s.Name)
	}
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	fmt.Fprintf(&b, "sessions %d\n", s.Sessions)
	fmt.Fprintf(&b, "target svc=%d", s.Target)
	if s.TgtMem != 0 {
		fmt.Fprintf(&b, " mem=%d", s.TgtMem)
	}
	b.WriteByte('\n')
	if s.Timeout > 0 {
		fmt.Fprintf(&b, "timeout %d\n", s.Timeout)
	}
	if f := s.Fleet; f != nil {
		fmt.Fprintf(&b, "fleet boards=%d replicas=%d clients=%d\n",
			f.Boards, f.Replicas, f.Clients)
	}
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "class %s weight=%d bytes=%d\n", c.Name, c.Weight, c.Bytes)
	}
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "phase %s dur=%d", p.Name, p.Dur)
		if p.RateTo != p.RateFrom {
			fmt.Fprintf(&b, " rate=%d..%d", p.RateFrom, p.RateTo)
		} else {
			fmt.Fprintf(&b, " rate=%d", p.RateFrom)
		}
		if bu := p.Burst; bu != nil {
			fmt.Fprintf(&b, " burst=%d@%dx%d", bu.Rate, bu.Period, bu.Dur)
		}
		if d := p.Diurnal; d != nil {
			fmt.Fprintf(&b, " diurnal=%d:%d", d.Period, d.Swing)
		}
		b.WriteByte('\n')
	}
	kills := append([]Kill(nil), s.Kills...)
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].At < kills[j].At })
	for _, k := range kills {
		fmt.Fprintf(&b, "kill board=%d at=%d\n", k.Board, k.At)
	}
	migs := append([]Migration(nil), s.Migrate...)
	sort.SliceStable(migs, func(i, j int) bool { return migs[i].At < migs[j].At })
	for _, m := range migs {
		fmt.Fprintf(&b, "migrate at=%d", m.At)
		if m.Replica != 0 {
			fmt.Fprintf(&b, " replica=%d", m.Replica)
		}
		b.WriteByte('\n')
	}
	drains := append([]Drain(nil), s.Drains...)
	sort.SliceStable(drains, func(i, j int) bool { return drains[i].At < drains[j].At })
	for _, d := range drains {
		fmt.Fprintf(&b, "drain board=%d at=%d\n", d.Board, d.At)
	}
	if s.Chaos != nil {
		for _, line := range strings.Split(strings.TrimRight(s.Chaos.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "chaos %s\n", line)
		}
	}
	return b.String()
}
