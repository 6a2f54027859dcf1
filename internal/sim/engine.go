// Package sim provides the cycle-driven simulation core that the rest of
// Apiary is built on: a global clock, synchronous tickers (hardware blocks),
// a discrete-event queue for coarse-grained components, a deterministic PRNG
// and statistics collection.
//
// The model is a synchronous digital design: every registered Ticker is
// invoked exactly once per clock cycle, in registration order, and may also
// schedule events for future cycles. Determinism is a hard requirement —
// a simulation built with the same seed and the same registration order
// always produces identical results.
//
// Each cycle has two phases, mirroring a flop-based design: a *tick* phase
// in which every ticker computes (and cross-component effects are staged),
// and a *commit* phase in which registered Committers apply staged effects
// in registration order. Staging gives flop semantics: an effect produced
// in cycle t (a freed buffer credit, say) is visible to tickers from cycle
// t+1 on, whatever order the tickers ran in.
package sim

import (
	"container/heap"
	"fmt"
)

// Cycle is a point in simulated time, measured in clock cycles since reset.
type Cycle uint64

// Ticker is a synchronous hardware block. Tick is called once per cycle with
// the current cycle number.
type Ticker interface {
	Tick(now Cycle)
}

// IdleTicker is a Ticker that can report when ticking it would be a no-op.
// The idle contract: while Idle() returns true, Tick must not change any
// observable simulation state (component state, statistics, scheduled
// events) — until the component's next self-timed cycle, if it has one
// (see Waker). The engine uses the contract to fast-forward the clock
// across stretches where every registered ticker is idle; because skipped
// ticks are exactly the ticks that would have done nothing, a run with
// fast-forward enabled is bit-identical to one without it.
//
// A component whose activity depends on the clock (a traffic generator, a
// retransmission timer, a reply held until its due cycle) sleeps: it
// reports Idle and names its next self-timed cycle with NextWake, or
// schedules that work as engine events.
type IdleTicker interface {
	Ticker
	Idle() bool
}

// Waker is optionally implemented by IdleTickers with self-timed work.
// NextWake reports the first cycle whose Tick is not a no-op while Idle()
// holds; 0 means no timed work (the ticker sleeps until an event or another
// ticker's effect wakes it). Every Tick before NextWake() must be a no-op
// exactly as under Idle, so the engine may jump straight to it. A sleeping
// ticker may keep time lazily — catching up the cycles it slept through on
// its next tick — provided the result is the one per-cycle ticking gives.
type Waker interface {
	NextWake() Cycle
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(now Cycle)

// Tick calls f(now).
func (f TickerFunc) Tick(now Cycle) { f(now) }

// Committer is implemented by subsystems that stage cross-ticker effects
// during the tick phase and apply them afterwards. Commit runs after every
// ticker has ticked, in committer-registration order.
type Committer interface {
	Commit(now Cycle)
}

// Event is a deferred action scheduled on the engine's event queue.
type Event struct {
	At   Cycle
	Do   func(now Cycle)
	seq  uint64 // tie-break for determinism
	pos  int
	dead bool
	// pooled events (ScheduleNoHandle) return to the engine's free list
	// after firing; the caller holds no reference, so reuse is safe.
	pooled bool
}

// Cancel marks the event so it will not fire. Cancelling an already-fired
// event is a no-op.
func (e *Event) Cancel() { e.dead = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine drives the simulation. The zero value is not usable; use NewEngine.
type Engine struct {
	now     Cycle
	tickers []Ticker
	events  eventHeap
	seq     uint64
	rng     *RNG
	freqMHz uint64
	stopped bool

	// idlers mirrors tickers; idleCapable stays true only while every
	// registered ticker implements IdleTicker, which is the precondition
	// for fast-forwarding the clock.
	idlers      []IdleTicker
	wakers      []Waker
	idleCapable bool
	idleSkip    bool
	skipped     uint64

	committers []Committer

	// evPool recycles fired ScheduleNoHandle events so steady-state
	// schedulers (the NoC express bypass wakes itself once per bypassed
	// packet) allocate nothing per flight.
	evPool []*Event

	// inTick is true while tickers run; running is true inside
	// Run/RunUntil. Both guard Register.
	inTick  bool
	running bool
}

// DefaultFreqMHz is the clock frequency assumed when none is configured.
// 250 MHz is a typical frequency for FPGA datapath logic.
const DefaultFreqMHz = 250

// NewEngine returns an engine with the given PRNG seed and a 250 MHz clock.
// Idle fast-forward is enabled by default; it is behaviour-preserving (see
// IdleTicker) and can be disabled with SetIdleSkip for A/B testing.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), freqMHz: DefaultFreqMHz,
		idleCapable: true, idleSkip: true}
}

// SetIdleSkip enables or disables clock fast-forward across all-idle
// stretches. Disabling it forces the engine to grind every cycle — useful
// to verify that a workload is skip-invariant.
func (e *Engine) SetIdleSkip(on bool) { e.idleSkip = on }

// IdleSkip reports whether fast-forward is enabled.
func (e *Engine) IdleSkip() bool { return e.idleSkip }

// SkippedCycles reports how many cycles Run/RunUntil fast-forwarded over
// instead of ticking (observability; skipped cycles still elapse on the
// simulated clock).
func (e *Engine) SkippedCycles() uint64 { return e.skipped }

// SetClockMHz sets the clock frequency used by time conversions.
// It panics if mhz is zero.
func (e *Engine) SetClockMHz(mhz uint64) {
	if mhz == 0 {
		panic("sim: zero clock frequency")
	}
	e.freqMHz = mhz
}

// ClockMHz reports the configured clock frequency.
func (e *Engine) ClockMHz() uint64 { return e.freqMHz }

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Register adds a ticker; it will be called every cycle from the next Step
// on. Registration order is the engine's determinism anchor: it defines the
// tick order and (via Committers) the order staged effects apply — so it
// must itself be deterministic across runs. Register panics if called while
// a Run/RunUntil is in progress or from inside a tick phase: growing the
// ticker list mid-run would make the tick order depend on when the ticker
// joined, which is exactly the nondeterminism the contract exists to
// exclude. Register from an event fired by a bare Step is permitted (events
// precede tickers within the cycle, so the new ticker ticks a full first
// cycle).
func (e *Engine) Register(t Ticker) {
	if t == nil {
		panic("sim: Register(nil)")
	}
	if e.running || e.inTick {
		panic("sim: Register while running")
	}
	e.tickers = append(e.tickers, t)
	if it, ok := t.(IdleTicker); ok {
		e.idlers = append(e.idlers, it)
		if w, ok := t.(Waker); ok {
			e.wakers = append(e.wakers, w)
		}
	} else {
		// One opaque ticker disables fast-forward for the whole engine:
		// we can never prove a cycle is dead.
		e.idlers = append(e.idlers, nil)
		e.idleCapable = false
	}
}

// RegisterCommitter adds a commit-phase hook, run after the tick phase of
// every cycle in registration order (see Committer). Registering the same
// subsystem twice commits it twice; don't.
func (e *Engine) RegisterCommitter(c Committer) {
	if c == nil {
		panic("sim: RegisterCommitter(nil)")
	}
	if e.running || e.inTick {
		panic("sim: RegisterCommitter while running")
	}
	e.committers = append(e.committers, c)
}

// InTickPhase reports whether the engine is inside the tick phase of a
// cycle. Components with both a direct and a staged path for a
// cross-component effect use it to pick: staged during the tick phase,
// direct otherwise (commit phase, event handlers, setup code).
func (e *Engine) InTickPhase() bool { return e.inTick }

// allIdle reports whether every registered ticker is provably idle, i.e.
// the next cycle would tick nothing and only the event queue or a ticker's
// self-timed wake can make progress.
func (e *Engine) allIdle() bool {
	if !e.idleCapable {
		return false
	}
	for _, it := range e.idlers {
		if !it.Idle() {
			return false
		}
	}
	return true
}

// Schedule queues fn to run at cycle `at`. Scheduling in the past (or the
// current cycle, which has already begun) panics, because it would silently
// break causality.
func (e *Engine) Schedule(at Cycle, fn func(now Cycle)) *Event {
	if at <= e.now && e.now != 0 {
		panic(fmt.Sprintf("sim: Schedule at cycle %d but now is %d", at, e.now))
	}
	e.seq++
	ev := &Event{At: at, Do: fn, seq: e.seq}
	heap.Push(&e.events, ev)
	return ev
}

// ScheduleNoHandle queues fn at cycle `at` like Schedule, but returns no
// *Event handle: the event cannot be cancelled, which lets the engine pool
// and reuse the Event object after it fires. Hot paths that schedule one
// wake-up per unit of work (and never cancel) stay allocation-free.
func (e *Engine) ScheduleNoHandle(at Cycle, fn func(now Cycle)) {
	if at <= e.now && e.now != 0 {
		panic(fmt.Sprintf("sim: Schedule at cycle %d but now is %d", at, e.now))
	}
	e.seq++
	var ev *Event
	if k := len(e.evPool); k > 0 {
		ev = e.evPool[k-1]
		e.evPool[k-1] = nil
		e.evPool = e.evPool[:k-1]
	} else {
		ev = &Event{}
	}
	*ev = Event{At: at, Do: fn, seq: e.seq, pooled: true}
	heap.Push(&e.events, ev)
}

// After queues fn to run d cycles from now (d must be >= 1).
func (e *Engine) After(d Cycle, fn func(now Cycle)) *Event {
	if d == 0 {
		d = 1
	}
	e.seq++
	ev := &Event{At: e.now + d, Do: fn, seq: e.seq}
	heap.Push(&e.events, ev)
	return ev
}

// Stop requests that the Run/RunUntil in progress return at the end of the
// current cycle. Stop does not interrupt the cycle itself: when called from
// a scheduled event, the remaining events due this cycle and every ticker
// still fire before the run returns (events always precede tickers within a
// cycle). A Stop requested while no run is active carries over to the next
// Run/RunUntil, which returns before advancing the clock.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether a stop request is pending (set by Stop, cleared
// when a Run/RunUntil consumes it on return).
func (e *Engine) Stopped() bool { return e.stopped }

// Step advances the simulation exactly one cycle: events due this cycle
// fire first, then the tick phase runs every ticker in registration order,
// then the commit phase applies staged effects via the registered
// Committers in registration order. Step never
// fast-forwards; the idle-skip optimization lives in Run/RunUntil, which
// know their budget.
func (e *Engine) Step() {
	e.now++
	for len(e.events) > 0 && e.events[0].At <= e.now {
		ev := heap.Pop(&e.events).(*Event)
		if !ev.dead {
			ev.Do(e.now)
		}
		if ev.pooled {
			ev.Do = nil
			e.evPool = append(e.evPool, ev)
		}
	}
	e.inTick = true
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
	e.inTick = false
	for _, c := range e.committers {
		c.Commit(e.now)
	}
}

// maybeSkip fast-forwards the clock to one cycle before the earliest
// upcoming event, ticker wake (Waker) or the run's end, provided every
// ticker is idle so the skipped cycles are provably dead. The next Step
// then lands exactly on that cycle.
func (e *Engine) maybeSkip(end Cycle) {
	if !e.idleSkip || !e.allIdle() {
		return
	}
	next := end
	if len(e.events) > 0 && e.events[0].At < next {
		next = e.events[0].At
	}
	for _, w := range e.wakers {
		if at := w.NextWake(); at != 0 && at < next {
			next = at
		}
	}
	if next > e.now+1 {
		e.skipped += uint64(next - e.now - 1)
		e.now = next - 1
	}
}

// Run advances n cycles, or fewer if Stop is called. Run(0) is a no-op and
// in particular leaves a pending stop request pending.
func (e *Engine) Run(n Cycle) {
	if n == 0 {
		return
	}
	if e.stopped {
		e.stopped = false
		return
	}
	e.running = true
	end := e.now + n
	for e.now < end && !e.stopped {
		e.maybeSkip(end)
		e.Step()
	}
	e.running = false
	e.stopped = false
}

// RunUntil advances the simulation until cond returns true or the budget of
// cycles is exhausted. It reports whether cond became true. cond is
// evaluated before every cycle; it must be a function of simulation state
// (see RunUntilEvery for the exact contract).
func (e *Engine) RunUntil(cond func() bool, budget Cycle) bool {
	return e.RunUntilEvery(cond, budget, 1)
}

// RunUntilEvery is RunUntil with the condition evaluated only once every
// stride cycles (and once more when the budget runs out), for predicates
// that are expensive relative to a cycle. A stride of 0 means 1.
//
// cond must be a pure function of simulation state: state only changes when
// tickers or events run, so the engine skips re-evaluating cond across
// fast-forwarded all-idle stretches (and, with stride > 1, between
// checkpoints). A condition on raw e.Now() may therefore be observed later
// than it first held; bound such waits with Run or schedule an event
// calling Stop instead.
func (e *Engine) RunUntilEvery(cond func() bool, budget, stride Cycle) bool {
	if stride == 0 {
		stride = 1
	}
	if e.stopped && budget > 0 {
		e.stopped = false
		return cond()
	}
	e.running = true
	end := e.now + budget
	sinceCheck := stride // evaluate once before the first cycle
	for e.now < end && !e.stopped {
		if sinceCheck >= stride {
			if cond() {
				e.running = false
				return true
			}
			sinceCheck = 0
		}
		start := e.now
		e.maybeSkip(end)
		e.Step()
		sinceCheck += e.now - start
	}
	e.running = false
	e.stopped = false
	return cond()
}

// Nanos converts a cycle count to nanoseconds at the configured frequency.
func (e *Engine) Nanos(c Cycle) float64 {
	return float64(c) * 1e3 / float64(e.freqMHz)
}

// Micros converts a cycle count to microseconds at the configured frequency.
func (e *Engine) Micros(c Cycle) float64 { return e.Nanos(c) / 1e3 }

// CyclesForNanos converts a duration in nanoseconds to cycles (rounded up).
func (e *Engine) CyclesForNanos(ns float64) Cycle {
	c := ns * float64(e.freqMHz) / 1e3
	whole := Cycle(c)
	if float64(whole) < c {
		whole++
	}
	return whole
}

// PendingEvents reports the number of live queued events (for tests).
func (e *Engine) PendingEvents() int {
	n := 0
	for _, ev := range e.events {
		if !ev.dead {
			n++
		}
	}
	return n
}
