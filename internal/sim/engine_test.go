package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestEngineTickOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Register(TickerFunc(func(Cycle) { order = append(order, 1) }))
	e.Register(TickerFunc(func(Cycle) { order = append(order, 2) }))
	e.Step()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("tick order = %v, want [1 2]", order)
	}
}

func TestEngineNowAdvances(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("fresh engine Now = %d, want 0", e.Now())
	}
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("after Run(10) Now = %d, want 10", e.Now())
	}
}

func TestEventsFireAtScheduledCycle(t *testing.T) {
	e := NewEngine(1)
	var fired Cycle
	e.Schedule(5, func(now Cycle) { fired = now })
	e.Run(10)
	if fired != 5 {
		t.Fatalf("event fired at %d, want 5", fired)
	}
}

func TestEventsFireBeforeTickersInSameCycle(t *testing.T) {
	e := NewEngine(1)
	var seq []string
	e.Register(TickerFunc(func(now Cycle) {
		if now == 3 {
			seq = append(seq, "tick")
		}
	}))
	e.Schedule(3, func(Cycle) { seq = append(seq, "event") })
	e.Run(5)
	if len(seq) != 2 || seq[0] != "event" || seq[1] != "tick" {
		t.Fatalf("sequence = %v, want [event tick]", seq)
	}
}

func TestEventOrderingDeterministicTies(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(2, func(Cycle) { got = append(got, i) })
	}
	e.Run(3)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken event order = %v, want ascending", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(2, func(Cycle) { fired = true })
	ev.Cancel()
	e.Run(5)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("PendingEvents = %d, want 0", e.PendingEvents())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	e.Run(4)
	var fired Cycle
	e.After(3, func(now Cycle) { fired = now })
	e.Run(10)
	if fired != 7 {
		t.Fatalf("After(3) at cycle 4 fired at %d, want 7", fired)
	}
}

func TestAfterZeroMeansNextCycle(t *testing.T) {
	e := NewEngine(1)
	e.Run(1)
	var fired Cycle
	e.After(0, func(now Cycle) { fired = now })
	e.Run(3)
	if fired != 2 {
		t.Fatalf("After(0) fired at %d, want 2", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickerFunc(func(now Cycle) {
		if now == 3 {
			e.Stop()
		}
	}))
	e.Run(100)
	if e.Now() != 3 {
		t.Fatalf("Now after Stop = %d, want 3", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	hit := false
	e.Schedule(7, func(Cycle) { hit = true })
	if !e.RunUntil(func() bool { return hit }, 100) {
		t.Fatal("RunUntil did not observe condition")
	}
	if e.Now() < 7 || e.Now() > 8 {
		t.Fatalf("Now = %d, want ~7", e.Now())
	}
	if e.RunUntil(func() bool { return false }, 10) {
		t.Fatal("RunUntil reported success for impossible condition")
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule in the past did not panic")
		}
	}()
	e.Schedule(3, func(Cycle) {})
}

func TestTimeConversions(t *testing.T) {
	e := NewEngine(1)
	e.SetClockMHz(250) // 4 ns per cycle
	if ns := e.Nanos(10); ns != 40 {
		t.Fatalf("Nanos(10) = %v, want 40", ns)
	}
	if us := e.Micros(250); us != 1 {
		t.Fatalf("Micros(250) = %v, want 1", us)
	}
	if c := e.CyclesForNanos(41); c != 11 {
		t.Fatalf("CyclesForNanos(41) = %d, want 11 (round up)", c)
	}
	if c := e.CyclesForNanos(40); c != 10 {
		t.Fatalf("CyclesForNanos(40) = %d, want 10", c)
	}
}

func TestSetClockZeroPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetClockMHz(0) did not panic")
		}
	}()
	e.SetClockMHz(0)
}

func TestRegisterNilPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	e.Register(nil)
}

func TestRegisterWhileRunningPanics(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickerFunc(func(now Cycle) {
		if now == 2 {
			e.Register(TickerFunc(func(Cycle) {}))
		}
	}))
	defer func() {
		if recover() == nil {
			t.Fatal("Register from a ticker during Run did not panic")
		}
	}()
	e.Run(5)
}

func TestRegisterFromEventDuringRunPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(2, func(Cycle) {
		e.Register(TickerFunc(func(Cycle) {}))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Register from an event during Run did not panic")
		}
	}()
	e.Run(5)
}

func TestRegisterCommitterWhileRunningPanics(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickerFunc(func(now Cycle) {
		e.RegisterCommitter(committerFunc(func(Cycle) {}))
	}))
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterCommitter during a tick did not panic")
		}
	}()
	e.Step()
}

// committerFunc adapts a function to Committer for tests.
type committerFunc func(now Cycle)

func (f committerFunc) Commit(now Cycle) { f(now) }

// Register from an event fired by a bare Step is explicitly permitted: the
// event runs before the tick phase, so the new ticker ticks that same cycle.
func TestRegisterFromBareStepEventAllowed(t *testing.T) {
	e := NewEngine(1)
	var ticked []Cycle
	e.Schedule(1, func(Cycle) {
		e.Register(TickerFunc(func(now Cycle) { ticked = append(ticked, now) }))
	})
	e.Step()
	e.Step()
	if len(ticked) != 2 || ticked[0] != 1 || ticked[1] != 2 {
		t.Fatalf("late-registered ticker ticked at %v, want [1 2]", ticked)
	}
}

// TestCommitAfterEveryTicker pins the two-phase cycle: each cycle's commit
// phase runs after every ticker has ticked, committers run in registration
// order, and InTickPhase tells the two phases apart.
func TestCommitAfterEveryTicker(t *testing.T) {
	e := NewEngine(42)
	var log []string
	for i := 0; i < 3; i++ {
		id := i
		e.Register(TickerFunc(func(now Cycle) {
			if !e.InTickPhase() {
				t.Errorf("ticker %d: InTickPhase false during tick", id)
			}
			log = append(log, fmt.Sprintf("t%d@%d", id, now))
		}))
	}
	for i := 0; i < 2; i++ {
		id := i
		e.RegisterCommitter(committerFunc(func(now Cycle) {
			if e.InTickPhase() {
				t.Errorf("committer %d: InTickPhase true during commit", id)
			}
			log = append(log, fmt.Sprintf("c%d@%d", id, now))
		}))
	}
	e.Run(2)
	want := "t0@1 t1@1 t2@1 c0@1 c1@1 t0@2 t1@2 t2@2 c0@2 c1@2"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("cycle order:\n got %s\nwant %s", got, want)
	}
}

// TestStopFinishesTickPhase: a Stop requested by an event ends the run at
// the end of the requesting cycle, so that cycle's tick phase still runs.
func TestStopFinishesTickPhase(t *testing.T) {
	e := NewEngine(1)
	var last Cycle
	e.Register(TickerFunc(func(now Cycle) { last = now }))
	e.Schedule(3, func(Cycle) { e.Stop() })
	e.Run(100)
	if e.Now() != 3 || last != 3 {
		t.Fatalf("Now = %d, last tick = %d, want 3/3", e.Now(), last)
	}
	if e.Stopped() {
		t.Fatal("stop request not consumed by Run")
	}
}

func TestRunZeroLeavesPendingStop(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickerFunc(func(Cycle) {}))
	e.Stop()
	e.Run(0) // no-op: must not consume the pending stop
	if !e.Stopped() {
		t.Fatal("Run(0) consumed the pending stop request")
	}
	e.Run(5) // consumes the stop, does not advance
	if e.Now() != 0 {
		t.Fatalf("Run after pending stop advanced to %d, want 0", e.Now())
	}
	e.Run(5)
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5", e.Now())
	}
}

func TestRunUntilEveryOvershootAndPendingStop(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	e.Register(TickerFunc(func(Cycle) { ticks++ }))
	if !e.RunUntilEvery(func() bool { return ticks >= 10 }, 100, 4) {
		t.Fatal("RunUntilEvery did not observe the condition")
	}
	// Condition is checked every 4 cycles, so the run overshoots by < 4.
	if ticks < 10 || ticks > 13 {
		t.Fatalf("ticks = %d, want 10..13", ticks)
	}
	// A pending stop makes RunUntilEvery return cond() without advancing.
	e.Stop()
	before := e.Now()
	if !e.RunUntilEvery(func() bool { return true }, 100, 1) {
		t.Fatal("RunUntilEvery with pending stop did not evaluate cond")
	}
	if e.Now() != before {
		t.Fatalf("RunUntilEvery with pending stop advanced %d -> %d", before, e.Now())
	}
}
