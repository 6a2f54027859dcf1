package accel

import (
	"reflect"
	"testing"

	"apiary/internal/msg"
	"apiary/internal/sim"
)

// testAccel is a scriptable accelerator: each Tick it drains one message
// and optionally sends, panics, or faults.
type testAccel struct {
	name      string
	ctxs      int
	panicNow  bool
	faultNow  bool
	consume   bool
	preempt   bool
	resets    int
	got       []*msg.Message
	killed    map[uint8]bool
	sendEvery *msg.Message
}

func (a *testAccel) Name() string  { return a.name }
func (a *testAccel) Contexts() int { return a.ctxs }
func (a *testAccel) Reset()        { a.resets++; a.got = nil }
func (a *testAccel) Tick(p Port) {
	if a.panicNow {
		a.panicNow = false
		panic("testAccel: injected panic")
	}
	if a.faultNow {
		a.faultNow = false
		p.Fault(1, FaultExplicit)
	}
	if a.consume {
		if m, ok := p.Recv(); ok {
			a.got = append(a.got, m)
		}
	}
	if a.sendEvery != nil {
		p.Send(a.sendEvery)
	}
}

// preemptAccel extends testAccel with the Preemptible methods.
type preemptAccel struct{ testAccel }

func (a *preemptAccel) SaveContext(ctx uint8) ([]byte, error)    { return []byte{ctx}, nil }
func (a *preemptAccel) RestoreContext(ctx uint8, s []byte) error { return nil }
func (a *preemptAccel) KillContext(ctx uint8) {
	if a.killed == nil {
		a.killed = map[uint8]bool{}
	}
	a.killed[ctx] = true
}

var _ Preemptible = (*preemptAccel)(nil)

func newShell(a Accelerator) *Shell { return NewShell(a, sim.NewStats()) }

func TestDeliverAndRecv(t *testing.T) {
	a := &testAccel{name: "t", ctxs: 1, consume: true}
	s := newShell(a)
	m := &msg.Message{Type: msg.TRequest}
	if code := s.Deliver(m); code != msg.EOK {
		t.Fatalf("Deliver = %v", code)
	}
	s.Tick(1)
	if len(a.got) != 1 || a.got[0] != m {
		t.Fatal("accelerator did not receive message")
	}
}

func TestDeliverQueueBound(t *testing.T) {
	s := newShell(&testAccel{name: "t", ctxs: 1})
	for i := 0; i < InQDepth; i++ {
		if code := s.Deliver(&msg.Message{}); code != msg.EOK {
			t.Fatalf("Deliver %d = %v", i, code)
		}
	}
	if code := s.Deliver(&msg.Message{}); code != msg.EBusy {
		t.Fatalf("overfull Deliver = %v, want EBusy", code)
	}
	if s.QueueLen() != InQDepth {
		t.Fatalf("QueueLen = %d", s.QueueLen())
	}
}

func TestDeliverBadContext(t *testing.T) {
	s := newShell(&testAccel{name: "t", ctxs: 2})
	if code := s.Deliver(&msg.Message{DstCtx: 5}); code != msg.ENoContext {
		t.Fatalf("bad ctx Deliver = %v", code)
	}
}

func TestPanicBecomesFault(t *testing.T) {
	a := &testAccel{name: "t", ctxs: 1, panicNow: true}
	s := newShell(a)
	var gotCtx uint8 = 99
	var gotReason FaultReason
	s.Bind(func(m *msg.Message) msg.ErrCode { return msg.EOK },
		func(ctx uint8, r FaultReason) { gotCtx, gotReason = ctx, r })
	s.Tick(1) // must not propagate the panic
	if gotReason != FaultPanic || gotCtx != 0 {
		t.Fatalf("fault hook got ctx=%d reason=%v", gotCtx, gotReason)
	}
}

func TestExplicitFault(t *testing.T) {
	a := &testAccel{name: "t", ctxs: 2, faultNow: true}
	s := newShell(a)
	var gotCtx uint8
	var gotReason FaultReason
	s.Bind(nil, func(ctx uint8, r FaultReason) { gotCtx, gotReason = ctx, r })
	s.Tick(1)
	if gotReason != FaultExplicit || gotCtx != 1 {
		t.Fatalf("fault = ctx %d reason %v", gotCtx, gotReason)
	}
}

func TestStoppedShellInert(t *testing.T) {
	a := &testAccel{name: "t", ctxs: 1, consume: true}
	s := newShell(a)
	s.SetState(Stopped)
	if code := s.Deliver(&msg.Message{}); code != msg.EFailStopped {
		t.Fatalf("Deliver on stopped = %v", code)
	}
	if code := s.Send(&msg.Message{}); code != msg.EFailStopped {
		t.Fatalf("Send on stopped = %v", code)
	}
	s.Tick(5)
	if len(a.got) != 0 {
		t.Fatal("stopped shell ticked the accelerator")
	}
}

func TestKillContextPreemptible(t *testing.T) {
	a := &preemptAccel{testAccel{name: "t", ctxs: 3}}
	s := newShell(a)
	// Queue messages for contexts 1 and 2.
	s.Deliver(&msg.Message{DstCtx: 1})
	s.Deliver(&msg.Message{DstCtx: 2})
	if !s.KillContext(1) {
		t.Fatal("KillContext failed on preemptible accelerator")
	}
	if !a.killed[1] {
		t.Fatal("accelerator KillContext not invoked")
	}
	if !s.CtxDead(1) || s.CtxDead(2) {
		t.Fatal("context liveness wrong")
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queued messages for dead ctx not dropped: %d", s.QueueLen())
	}
	if code := s.Deliver(&msg.Message{DstCtx: 1}); code != msg.ENoContext {
		t.Fatalf("Deliver to dead ctx = %v", code)
	}
	if code := s.Deliver(&msg.Message{DstCtx: 2}); code != msg.EOK {
		t.Fatalf("Deliver to live ctx = %v", code)
	}
}

func TestKillContextConcurrentOnlyFails(t *testing.T) {
	s := newShell(&testAccel{name: "t", ctxs: 2})
	if s.KillContext(1) {
		t.Fatal("KillContext succeeded on non-preemptible accelerator")
	}
}

func TestResetRestoresRunning(t *testing.T) {
	a := &preemptAccel{testAccel{name: "t", ctxs: 2}}
	s := newShell(a)
	s.KillContext(1)
	s.SetState(Draining)
	s.Deliver(&msg.Message{})
	s.Reset()
	if s.State() != Running || s.CtxDead(1) || s.QueueLen() != 0 {
		t.Fatal("Reset incomplete")
	}
	if a.resets != 1 {
		t.Fatal("accelerator Reset not called")
	}
}

func TestWatchdogFires(t *testing.T) {
	// Accelerator that never consumes while its queue is full.
	a := &testAccel{name: "hang", ctxs: 1, consume: false}
	s := newShell(a)
	fired := false
	s.Bind(nil, func(ctx uint8, r FaultReason) {
		if r == FaultWatchdog {
			fired = true
		}
	})
	for i := 0; i < InQDepth; i++ {
		s.Deliver(&msg.Message{})
	}
	for c := sim.Cycle(1); c < WatchdogCycles+10 && !fired; c++ {
		s.Tick(c)
	}
	if !fired {
		t.Fatal("watchdog did not fire on a hung accelerator")
	}
}

func TestWatchdogNotFiredWhenDraining(t *testing.T) {
	a := &testAccel{name: "ok", ctxs: 1, consume: true}
	s := newShell(a)
	fired := false
	s.Bind(nil, func(uint8, FaultReason) { fired = true })
	for c := sim.Cycle(1); c < WatchdogCycles+10; c++ {
		if s.QueueLen() < InQDepth {
			s.Deliver(&msg.Message{})
		}
		s.Tick(c)
	}
	if fired {
		t.Fatal("watchdog fired on a healthy accelerator")
	}
}

func TestSendWithoutBind(t *testing.T) {
	s := newShell(&testAccel{name: "t", ctxs: 1})
	if code := s.Send(&msg.Message{}); code != msg.ENoRoute {
		t.Fatalf("unbound Send = %v", code)
	}
}

func TestZeroContextsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-context accelerator accepted")
		}
	}()
	newShell(&testAccel{name: "t", ctxs: 0})
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Running, Draining, Stopped, State(9)} {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
	for _, f := range []FaultReason{FaultNone, FaultPanic, FaultExplicit, FaultWatchdog, FaultReason(9)} {
		if f.String() == "" {
			t.Fatal("empty fault name")
		}
	}
}

// sleeper is asleep until wake and records which cycles it was ticked and
// which the shell withheld.
type sleeper struct {
	wake     sim.Cycle
	ticked   []sim.Cycle
	withheld []sim.Cycle
}

func (a *sleeper) Name() string           { return "sleeper" }
func (a *sleeper) Reset()                 {}
func (a *sleeper) Contexts() int          { return 1 }
func (a *sleeper) Tick(p Port)            { a.ticked = append(a.ticked, p.Now()) }
func (a *sleeper) Idle() bool             { return true }
func (a *sleeper) NextWake() sim.Cycle    { return a.wake }
func (a *sleeper) Withhold(now sim.Cycle) { a.withheld = append(a.withheld, now) }

func TestShellForwardsWakeAndWithholds(t *testing.T) {
	a := &sleeper{wake: 90}
	s := newShell(a)
	if s.NextWake() != 90 || !s.Idle() {
		t.Fatalf("running shell: wake %d idle %v, want 90 true", s.NextWake(), s.Idle())
	}
	s.SetHang(12)
	s.Tick(10)
	s.Tick(11)
	s.Tick(12)
	if !reflect.DeepEqual(a.withheld, []sim.Cycle{10}) || !reflect.DeepEqual(a.ticked, []sim.Cycle{12}) {
		t.Fatalf("withheld %v ticked %v, want [10] (the stretch's first cycle) and [12]", a.withheld, a.ticked)
	}
	// A stop is withheld too, and its first cycle is never skipped.
	s.SetState(Draining)
	if s.Idle() {
		t.Fatal("a freshly stopped shell must tick once to report the withheld stretch")
	}
	s.Tick(13)
	s.Tick(14)
	if !reflect.DeepEqual(a.withheld, []sim.Cycle{10, 13}) || !s.Idle() {
		t.Fatalf("withheld %v idle %v, want [10 13] and idle", a.withheld, s.Idle())
	}
	// Asleep with a wake pending is not drained (the Idler fallback).
	s.SetState(Quiescing)
	if s.Quiescent() {
		t.Fatal("quiescent while asleep with timed work pending")
	}
	a.wake = 0
	if !s.Quiescent() {
		t.Fatal("idle with no wake pending should be quiescent")
	}
	s.SetState(Stopped)
	a.wake = 90
	if s.NextWake() != 0 {
		t.Fatal("a stopped shell never ticks its logic: no wake")
	}
}
