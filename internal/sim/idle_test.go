package sim

import (
	"reflect"
	"testing"
)

// idleCounter is an IdleTicker that does one unit of work per cycle while
// work is pending (work arrives via engine events) and records the cycles
// it worked at.
type idleCounter struct {
	pending int
	history []Cycle
}

func (c *idleCounter) Idle() bool { return c.pending == 0 }

func (c *idleCounter) Tick(now Cycle) {
	if c.pending == 0 {
		return
	}
	c.pending--
	c.history = append(c.history, now)
}

func TestIdleSkipFastForwards(t *testing.T) {
	e := NewEngine(1)
	c := &idleCounter{}
	e.Register(c)
	e.Schedule(1000, func(Cycle) { c.pending = 2 })
	e.Run(2000)
	if e.Now() != 2000 {
		t.Fatalf("Now = %d, want 2000", e.Now())
	}
	if e.SkippedCycles() == 0 {
		t.Fatal("no cycles skipped across an all-idle stretch")
	}
	want := []Cycle{1000, 1001}
	if !reflect.DeepEqual(c.history, want) {
		t.Fatalf("work history = %v, want %v", c.history, want)
	}
}

func TestIdleSkipDeterminism(t *testing.T) {
	run := func(skip bool) (*idleCounter, Cycle) {
		e := NewEngine(42)
		e.SetIdleSkip(skip)
		c := &idleCounter{}
		e.Register(c)
		// Irregular bursts of work, including an event scheduled from an
		// event.
		e.Schedule(10, func(Cycle) { c.pending += 3 })
		e.Schedule(500, func(now Cycle) {
			c.pending++
			e.After(250, func(Cycle) { c.pending += 2 })
		})
		e.Run(5000)
		return c, e.Now()
	}
	cOn, nowOn := run(true)
	cOff, nowOff := run(false)
	if nowOn != nowOff {
		t.Fatalf("final cycle differs: skip=%d noskip=%d", nowOn, nowOff)
	}
	if !reflect.DeepEqual(cOn.history, cOff.history) {
		t.Fatalf("work history differs:\n skip:   %v\n noskip: %v",
			cOn.history, cOff.history)
	}
	if len(cOn.history) == 0 {
		t.Fatal("workload did nothing; test is vacuous")
	}
}

func TestOpaqueTickerDisablesSkip(t *testing.T) {
	e := NewEngine(1)
	e.Register(&idleCounter{})
	e.Register(TickerFunc(func(Cycle) {})) // not idle-capable
	e.Run(1000)
	if e.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles despite an opaque ticker", e.SkippedCycles())
	}
}

func TestSetIdleSkipOff(t *testing.T) {
	e := NewEngine(1)
	e.Register(&idleCounter{})
	e.SetIdleSkip(false)
	if e.IdleSkip() {
		t.Fatal("IdleSkip still reports enabled")
	}
	e.Run(1000)
	if e.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles with fast-forward disabled", e.SkippedCycles())
	}
}

// TestStopFromScheduledEvent pins the documented Stop semantics: a Stop
// issued by an event still lets the rest of that cycle complete — remaining
// same-cycle events and every ticker fire — before Run returns.
func TestStopFromScheduledEvent(t *testing.T) {
	e := NewEngine(1)
	var seq []string
	e.Schedule(3, func(Cycle) {
		seq = append(seq, "stop-event")
		e.Stop()
	})
	e.Schedule(3, func(Cycle) { seq = append(seq, "later-event") })
	e.Register(TickerFunc(func(now Cycle) {
		if now == 3 {
			seq = append(seq, "ticker")
		}
	}))
	e.Run(100)
	if e.Now() != 3 {
		t.Fatalf("Now after Stop = %d, want 3", e.Now())
	}
	want := []string{"stop-event", "later-event", "ticker"}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("cycle-3 sequence = %v, want %v", seq, want)
	}
	// The stop was consumed: the next Run proceeds normally.
	e.Run(2)
	if e.Now() != 5 {
		t.Fatalf("Now after follow-up Run(2) = %d, want 5", e.Now())
	}
}

func TestRunZeroPreservesPendingStop(t *testing.T) {
	e := NewEngine(1)
	e.Stop()
	e.Run(0)
	if !e.Stopped() {
		t.Fatal("Run(0) consumed a pending stop")
	}
	e.Run(10)
	if e.Now() != 0 {
		t.Fatalf("Run with pending stop advanced to %d, want 0", e.Now())
	}
	if e.Stopped() {
		t.Fatal("pending stop not consumed by Run")
	}
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestRunUntilPendingStop(t *testing.T) {
	e := NewEngine(1)
	e.Stop()
	if e.RunUntil(func() bool { return false }, 100) {
		t.Fatal("RunUntil true for false cond")
	}
	if e.Now() != 0 {
		t.Fatalf("RunUntil with pending stop advanced to %d, want 0", e.Now())
	}
	if e.Stopped() {
		t.Fatal("pending stop not consumed by RunUntil")
	}
}

func TestRunUntilEveryStride(t *testing.T) {
	e := NewEngine(1)
	// An opaque ticker keeps the engine grinding every cycle so the stride
	// is exercised cycle by cycle.
	e.Register(TickerFunc(func(Cycle) {}))
	evals := 0
	hit := false
	e.Schedule(10, func(Cycle) { hit = true })
	ok := e.RunUntilEvery(func() bool { evals++; return hit }, 100, 25)
	if !ok {
		t.Fatal("condition never observed")
	}
	// Checked once up front, once at cycle 25 (first stride checkpoint at or
	// after the event) — the stride makes observation late but bounded.
	if e.Now() != 25 {
		t.Fatalf("observed at cycle %d, want 25", e.Now())
	}
	if evals != 2 {
		t.Fatalf("cond evaluated %d times, want 2", evals)
	}
}

func TestRunUntilSkipsAcrossIdle(t *testing.T) {
	e := NewEngine(1)
	c := &idleCounter{}
	e.Register(c)
	e.Schedule(900, func(Cycle) { c.pending = 1 })
	done := func() bool { return len(c.history) > 0 }
	if !e.RunUntil(done, 10000) {
		t.Fatal("condition not reached")
	}
	if e.Now() > 902 {
		t.Fatalf("overshot: Now = %d, want ~900", e.Now())
	}
	if e.SkippedCycles() == 0 {
		t.Fatal("RunUntil did not fast-forward the idle stretch")
	}
}

// timer is a sleeping Waker: it works at each of its due cycles and at
// nothing in between, keeping time lazily — it counts the cycles it slept
// through on its next tick, as a rate accumulator would.
type timer struct {
	due     []Cycle // ascending
	last    Cycle   // last tick
	elapsed Cycle   // cycles accounted for, ticked or slept
	history []Cycle
}

func (w *timer) Idle() bool { return len(w.due) == 0 || w.due[0] > w.last+1 }

func (w *timer) NextWake() Cycle {
	if len(w.due) == 0 {
		return 0
	}
	return w.due[0]
}

func (w *timer) Tick(now Cycle) {
	w.elapsed += now - w.last
	w.last = now
	if len(w.due) > 0 && w.due[0] == now {
		w.due = w.due[1:]
		w.history = append(w.history, now)
	}
}

func TestWakerSkipsToNextWake(t *testing.T) {
	run := func(skip bool) (*timer, *Engine) {
		e := NewEngine(1)
		e.SetIdleSkip(skip)
		w := &timer{due: []Cycle{700, 701, 2500, 9000}}
		e.Register(&idleCounter{})
		e.Register(w)
		e.Run(10000)
		return w, e
	}
	on, eOn := run(true)
	off, _ := run(false)
	want := []Cycle{700, 701, 2500, 9000}
	if !reflect.DeepEqual(on.history, want) || !reflect.DeepEqual(off.history, want) {
		t.Fatalf("timed work at skip=%v noskip=%v, want %v", on.history, off.history, want)
	}
	if on.elapsed != off.elapsed || on.elapsed != 10000 {
		t.Fatalf("lazy clock %d (skip) vs %d (grind), want 10000", on.elapsed, off.elapsed)
	}
	// Ticked only at the four wakes and the run's last cycle.
	if got := eOn.SkippedCycles(); got != 10000-5 {
		t.Fatalf("skipped %d cycles, want %d", got, 10000-5)
	}
}

func TestWakerZeroMeansNoTimedWork(t *testing.T) {
	e := NewEngine(1)
	w := &timer{}
	e.Register(w)
	e.Run(5000)
	if e.SkippedCycles() != 4999 {
		t.Fatalf("skipped %d cycles, want 4999", e.SkippedCycles())
	}
}

func TestMaybeSkipAllocs(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		e.Register(&timer{due: []Cycle{Cycle(1000 * (i + 1))}})
	}
	e.Register(&idleCounter{})
	e.Schedule(50000, func(Cycle) {})
	allocs := testing.AllocsPerRun(100, func() {
		e.now = 0
		e.maybeSkip(100000)
	})
	if allocs != 0 {
		t.Fatalf("maybeSkip with %d wakers allocates %.1f per call, want 0", len(e.wakers), allocs)
	}
	if e.now != 999 {
		t.Fatalf("skipped to %d, want 999 (one before the earliest wake)", e.now)
	}
}
