// Package accel defines Apiary's accelerator framework: the interface
// untrusted logic implements, the trusted Shell that wraps each accelerator
// and connects it to the tile's monitor, and the fault model (paper §4.2,
// §4.4).
//
// Process granularity follows the paper: one user context running on one
// accelerator is a process. An accelerator may host several contexts;
// contexts on the same tile are mutually trusting but should be
// fault-isolated from each other when the accelerator is preemptible.
package accel

import (
	"fmt"

	"apiary/internal/msg"
	"apiary/internal/sim"
)

// FaultReason classifies why a process faulted.
type FaultReason uint8

// Fault reasons.
const (
	FaultNone      FaultReason = iota
	FaultPanic                 // accelerator logic panicked (hardware: error strobe)
	FaultExplicit              // accelerator declared an unrecoverable error
	FaultWatchdog              // stopped consuming input with a full queue (hang detector)
	FaultHeartbeat             // stopped making progress on queued input (heartbeat detector)
	FaultProtocol              // repeated protocol violations caught by the monitor
	FaultLeak                  // outstanding-request leak caught by the monitor
	FaultSpurious              // spurious detector trip (injected false positive)
)

func (f FaultReason) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultExplicit:
		return "explicit"
	case FaultWatchdog:
		return "watchdog"
	case FaultHeartbeat:
		return "heartbeat"
	case FaultProtocol:
		return "protocol"
	case FaultLeak:
		return "leak"
	case FaultSpurious:
		return "spurious"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// Port is the accelerator's window onto the rest of the system — the only
// way logic inside a tile can observe or affect anything outside it. The
// Shell implements it; every Send goes through the monitor.
type Port interface {
	// Now reports the current cycle.
	Now() sim.Cycle
	// Recv pops one delivered message, if any.
	Recv() (*msg.Message, bool)
	// Send submits a message. The returned code reflects *local* denials
	// (no capability, rate limit, fail-stop); remote errors arrive later as
	// TError messages.
	Send(m *msg.Message) msg.ErrCode
	// Fault declares that the given context has failed irrecoverably.
	Fault(ctx uint8, reason FaultReason)
}

// Accelerator is implemented by untrusted tile logic. Tick is called once
// per cycle; all I/O happens through the Port. Implementations must be
// deterministic given the same message sequence.
type Accelerator interface {
	// Name identifies the accelerator kind (for manifests and logs).
	Name() string
	// Reset returns the accelerator to its power-on state.
	Reset()
	// Contexts reports how many process contexts the accelerator hosts
	// (>= 1).
	Contexts() int
	// Tick advances the accelerator one cycle.
	Tick(p Port)
}

// Idler is optionally implemented by accelerators that can report when
// Tick(p) would be a no-op: no pending work, no timed work becoming due, no
// sends to retry. The shell combines this with its own queue state so the
// engine can fast-forward across idle stretches (sim.IdleTicker).
// Accelerators that generate work spontaneously (traffic sources) must
// return false until they are permanently finished.
type Idler interface {
	Idle() bool
}

// Checkpointable is implemented by accelerators that externalize
// per-context architectural state for checkpoint/restore. A quiescent
// checkpointable accelerator can be serialized, torn down, and reinstated
// in a different region (or on a different board) without its clients
// observing anything beyond a bounded retry window — the substrate of live
// migration (ROADMAP item 5, Funky-style).
type Checkpointable interface {
	// SaveContext serializes one context's state. The encoding must be
	// deterministic (sorted iteration over any map state) so snapshots are
	// bit-exact across runs.
	SaveContext(ctx uint8) ([]byte, error)
	// RestoreContext reinstates previously saved state. It must validate
	// bounds before mutating anything: a malformed blob returns an error
	// and leaves the context untouched (never partially applied).
	RestoreContext(ctx uint8, state []byte) error
}

// Preemptible extends Checkpointable with per-context kill (paper §4.4:
// SYNERGY-style). A preemptible accelerator lets the monitor kill or swap a
// single faulting context while the others keep running. Accelerators that
// can checkpoint but whose contexts are not fault-isolated from each other
// implement only Checkpointable and keep the fail-stop containment model.
type Preemptible interface {
	Accelerator
	Checkpointable
	// KillContext resets one context to a dead state without touching the
	// others.
	KillContext(ctx uint8)
}

// Quiescer is optionally implemented by accelerators that can report when
// they hold no in-flight work: no parked output, no outstanding RPCs to
// system services, no pending client requests. The shell consults it while
// Quiescing; without it, quiescence falls back to Idler (conservative for
// pipelines whose Idle already covers in-flight state).
type Quiescer interface {
	Quiescent() bool
}

// State is the shell's lifecycle state.
type State uint8

// Shell states. Draining and Stopped together implement the fail-stop model:
// a Draining tile's monitor discards its outgoing messages and NACKs
// incoming ones; once quiet it is Stopped until the kernel resumes it.
// Quiescing is the healthy variant used by checkpoint/migration: the shell
// keeps ticking, in-flight replies are delivered and sent, but new requests
// bounce with the retryable EQuiescing so clients ride out the window on
// their normal backoff machinery.
const (
	Running State = iota
	Draining
	Stopped
	Quiescing
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	case Quiescing:
		return "quiescing"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// InQDepth is the shell's default inbound message queue depth. A full queue
// pushes back with EBusy — bounded buffering is what makes resource
// exhaustion attacks answerable (paper §4.5). Manifests can size the queue
// per tile with SetQueueCap.
const InQDepth = 16

// WatchdogCycles is how long the inbound queue may remain full without a
// single dequeue before the shell declares a watchdog fault.
const WatchdogCycles = 10000

// FaultFunc is the monitor's fault hook: called by the shell when a context
// faults.
type FaultFunc func(ctx uint8, reason FaultReason)

// SendFunc is the monitor's egress hook.
type SendFunc func(m *msg.Message) msg.ErrCode

// StatsUser is optionally implemented by accelerators that export their own
// counters. The kernel calls AttachStats when placing the accelerator, so
// manifest-built logic surfaces in /metrics without constructor plumbing.
type StatsUser interface {
	AttachStats(st *sim.Stats)
}

// Shell wraps one accelerator and mediates all its interaction with the
// tile's monitor. The shell is trusted; the accelerator is not. In
// particular the shell converts panics in accelerator code into fail-stop
// faults instead of letting them take down the system — the hardware
// analogue is an error strobe from the wrapped region.
type Shell struct {
	acc     Accelerator
	state   State
	inq     []*msg.Message
	ctxDead []bool

	send  SendFunc
	fault FaultFunc
	now   sim.Cycle

	fullSince  sim.Cycle
	wasFull    bool
	delivered  *sim.Counter
	dropped    *sim.Counter
	faultCount *sim.Counter
	shedCount  *sim.Counter

	// Admission control (overload protection): qcap bounds the inbound
	// queue; svcGap is a deterministic EWMA of the inter-dequeue gap while
	// backlogged — the shell's drain rate — used to estimate queue wait for
	// deadline-aware shedding of budgeted requests.
	qcap     int
	svcGap   sim.Cycle
	lastDeq  sim.Cycle
	deqArmed bool

	// Heartbeat detector (monitor-configured, 0 = off): fault when queued
	// input sits unconsumed for hbCycles — the generalization of the
	// full-queue watchdog to tiles whose peers stop before filling it.
	hbCycles sim.Cycle
	hbSince  sim.Cycle
	hbArmed  bool

	// Chaos-engine injection state (internal/fault): while hung the wrapped
	// accelerator is not ticked; while babbling the shell emits one junk
	// request per cycle, as runaway logic would.
	hangUntil   sim.Cycle
	babbleUntil sim.Cycle
	babbleSvc   msg.ServiceID
	babbleSeq   uint32
}

// Blank is the power-on placeholder occupying a shell before any
// application logic is configured into its region: one context, no
// behavior, always idle. Tiles boot with a Blank-wrapped shell parked in
// Stopped state; placement swaps real logic in with Adopt.
type Blank struct{}

// Name identifies the placeholder.
func (Blank) Name() string { return "blank" }

// Reset is a no-op: there is no state to clear.
func (Blank) Reset() {}

// Contexts reports the single (vacant) context.
func (Blank) Contexts() int { return 1 }

// Tick does nothing.
func (Blank) Tick(Port) {}

// Idle reports true: a blank region never generates work.
func (Blank) Idle() bool { return true }

// NewShell wraps acc. The monitor installs its hooks with Bind before the
// first tick.
func NewShell(acc Accelerator, st *sim.Stats) *Shell {
	if acc.Contexts() < 1 {
		panic("accel: accelerator with zero contexts")
	}
	return &Shell{
		acc:        acc,
		ctxDead:    make([]bool, acc.Contexts()),
		delivered:  st.Counter("shell.delivered"),
		dropped:    st.Counter("shell.dropped"),
		faultCount: st.Counter("shell.faults"),
		shedCount:  st.Counter("shell.shed"),
		qcap:       InQDepth,
	}
}

// Bind installs the monitor's egress and fault hooks.
func (s *Shell) Bind(send SendFunc, fault FaultFunc) {
	s.send = send
	s.fault = fault
}

// Accelerator returns the wrapped accelerator.
func (s *Shell) Accelerator() Accelerator { return s.acc }

// State reports the shell's lifecycle state.
func (s *Shell) State() State { return s.state }

// SetState is used by the monitor to drive the fail-stop lifecycle.
func (s *Shell) SetState(st State) { s.state = st }

// CtxDead reports whether a context has been killed.
func (s *Shell) CtxDead(ctx uint8) bool {
	return int(ctx) < len(s.ctxDead) && s.ctxDead[ctx]
}

// KillContext marks a context dead and, when the accelerator is
// preemptible, resets just that context. It reports whether per-context
// isolation was possible — if not, the caller must fail-stop the whole
// tile (paper §4.4: "If an accelerator is only concurrent, then the best
// Apiary ... can achieve is a fail-stop model").
func (s *Shell) KillContext(ctx uint8) bool {
	if int(ctx) >= len(s.ctxDead) {
		return false
	}
	p, ok := s.acc.(Preemptible)
	if !ok {
		return false
	}
	p.KillContext(ctx)
	s.ctxDead[ctx] = true
	// Drop queued messages for the dead context.
	kept := s.inq[:0]
	for _, m := range s.inq {
		if m.DstCtx != ctx {
			kept = append(kept, m)
		} else {
			s.dropped.Inc()
		}
	}
	s.inq = kept
	return true
}

// Reset returns the accelerator and shell to a clean Running state. The
// kernel calls this after reconfiguring a fail-stopped tile. Injected fault
// conditions are cleared: reconfiguration replaces the broken logic.
func (s *Shell) Reset() {
	s.acc.Reset()
	s.inq = nil
	s.state = Running
	s.wasFull = false
	s.hbArmed = false
	s.hangUntil = 0
	s.babbleUntil = 0
	s.svcGap = 0
	s.deqArmed = false
	for i := range s.ctxDead {
		s.ctxDead[i] = false
	}
}

// Adopt replaces the wrapped accelerator with freshly configured logic and
// returns the shell to a clean Running state — the software analogue of
// partially reconfiguring the region inside a shell that stays resident in
// the static fabric. Because the shell (and its engine registration)
// survives unload/reload cycles, applications can be placed mid-run without
// growing the engine's ticker list: the tick order frozen at registration
// never changes. The queue bound resets to the default; callers reapply any
// manifest override.
func (s *Shell) Adopt(acc Accelerator) {
	if acc.Contexts() < 1 {
		panic("accel: accelerator with zero contexts")
	}
	s.acc = acc
	s.ctxDead = make([]bool, acc.Contexts())
	s.inq = nil
	s.state = Running
	s.wasFull = false
	s.hbArmed = false
	s.hangUntil = 0
	s.babbleUntil = 0
	s.svcGap = 0
	s.deqArmed = false
	s.qcap = InQDepth
}

// SetHeartbeat configures the heartbeat detector (0 disables it). The
// monitor sets this from its Detect config when attaching the shell.
func (s *Shell) SetHeartbeat(cycles sim.Cycle) { s.hbCycles = cycles }

// SetHang makes the accelerator stop consuming input until the given cycle
// (chaos-engine hook; called between cycles).
func (s *Shell) SetHang(until sim.Cycle) { s.hangUntil = until }

// SetBabble makes the shell emit one junk request per cycle to svc until
// the given cycle (chaos-engine hook; called between cycles).
func (s *Shell) SetBabble(until sim.Cycle, svc msg.ServiceID) {
	s.babbleUntil = until
	s.babbleSvc = svc
}

// SetQueueCap sizes the admission queue (<= 0 restores InQDepth). The
// kernel sets this from the manifest's queue_cap knob when placing the
// accelerator; messages already queued are never discarded by a shrink,
// the bound only gates future deliveries.
func (s *Shell) SetQueueCap(n int) {
	if n <= 0 {
		n = InQDepth
	}
	s.qcap = n
}

// QueueCap reports the admission queue bound.
func (s *Shell) QueueCap() int { return s.qcap }

// EstWait estimates how long a message delivered now would wait before the
// accelerator dequeues it: queue occupancy times the drain-gap EWMA. Zero
// until the shell has observed a backlogged dequeue.
func (s *Shell) EstWait() sim.Cycle {
	return sim.Cycle(len(s.inq)) * s.svcGap
}

// Deliver hands an inbound message to the shell (called by the monitor).
// Requests that cannot be admitted — queue full, or a deadline budget the
// estimated queue wait already exceeds — are shed with EBusy; the sender's
// monitor turns that into a NACK, so the client learns immediately instead
// of timing out (deadline-aware load shedding).
func (s *Shell) Deliver(m *msg.Message) msg.ErrCode {
	if s.state == Quiescing {
		// Healthy drain: replies to the accelerator's own in-flight work
		// still land (that is what lets it reach quiescence), but new work
		// bounces with the retryable quiescing code.
		switch m.Type {
		case msg.TReply, msg.TError, msg.TMemReply:
		default:
			return msg.EQuiescing
		}
	} else if s.state != Running {
		return msg.EFailStopped
	}
	if int(m.DstCtx) >= len(s.ctxDead) {
		return msg.ENoContext
	}
	if s.ctxDead[m.DstCtx] {
		return msg.ENoContext
	}
	if len(s.inq) >= s.qcap {
		s.dropped.Inc()
		if m.Type == msg.TRequest {
			s.shedCount.Inc()
		}
		return msg.EBusy
	}
	if m.Type == msg.TRequest && m.Budget > 0 && s.EstWait() > sim.Cycle(m.Budget) {
		s.shedCount.Inc()
		return msg.EBusy
	}
	s.inq = append(s.inq, m)
	s.delivered.Inc()
	return msg.EOK
}

// QueueLen reports the inbound queue occupancy.
func (s *Shell) QueueLen() int { return len(s.inq) }

// Tick advances the accelerator one cycle with panic containment and the
// watchdog.
func (s *Shell) Tick(now sim.Cycle) {
	if s.state != Running && s.state != Quiescing {
		return
	}
	s.now = now
	before := len(s.inq)

	if now >= s.hangUntil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.faultCount.Inc()
					if s.fault != nil {
						s.fault(0, FaultPanic)
					}
				}
			}()
			s.acc.Tick(s)
		}()
	}
	if now < s.babbleUntil {
		s.babbleSeq++
		_ = s.Send(&msg.Message{
			Type: msg.TRequest, DstSvc: s.babbleSvc,
			Seq: 0xBAB00000 + s.babbleSeq, Payload: []byte{0xBA, 0xBB, 0x1E},
		})
	}

	// Watchdog: a full queue that is never drained means the accelerator
	// hung while peers keep piling work onto it.
	if before >= s.qcap && len(s.inq) >= before {
		if !s.wasFull {
			s.wasFull = true
			s.fullSince = now
		} else if now-s.fullSince > WatchdogCycles {
			s.faultCount.Inc()
			s.wasFull = false
			if s.fault != nil {
				s.fault(0, FaultWatchdog)
			}
		}
	} else {
		s.wasFull = false
	}

	// Heartbeat: any queued input the accelerator leaves unconsumed for
	// hbCycles means it stopped serving, even if the queue never fills
	// (deliveries only happen at commit, so within a tick the queue can
	// only shrink — no progress means len did not drop).
	if s.hbCycles > 0 && s.state == Running {
		if before > 0 && len(s.inq) >= before {
			if !s.hbArmed {
				s.hbArmed = true
				s.hbSince = now
			} else if now-s.hbSince > s.hbCycles {
				s.hbArmed = false
				s.faultCount.Inc()
				if s.fault != nil {
					s.fault(0, FaultHeartbeat)
				}
			}
		} else {
			s.hbArmed = false
		}
	}
}

// Idle implements sim.IdleTicker: ticking is a no-op when the shell is not
// Running (Tick returns immediately), or when the inbound queue is empty,
// the watchdog is unarmed, and the accelerator itself declares idle. An
// accelerator that does not implement Idler is never considered idle — the
// conservative default for logic that may generate work spontaneously.
func (s *Shell) Idle() bool {
	if s.state != Running && s.state != Quiescing {
		return true
	}
	if len(s.inq) > 0 || s.wasFull || s.hbArmed {
		return false
	}
	// An armed injection keeps the shell ticking: a babbling tile emits
	// every cycle, and a hang must expire on schedule rather than be
	// fast-forwarded over.
	if s.now < s.hangUntil || s.now < s.babbleUntil {
		return false
	}
	ih, ok := s.acc.(Idler)
	return ok && ih.Idle()
}

// Quiescent reports whether a Quiescing shell has fully drained: the
// inbound queue is empty and the accelerator holds no in-flight work. The
// kernel polls this before snapshotting. Accelerators report in-flight
// state via Quiescer; Idler is the fallback, and an accelerator exposing
// neither is considered drained once its queue is (it has no way to hold
// hidden work the checkpoint could miss).
func (s *Shell) Quiescent() bool {
	if s.state != Quiescing || len(s.inq) > 0 {
		return false
	}
	if q, ok := s.acc.(Quiescer); ok {
		return q.Quiescent()
	}
	if ih, ok := s.acc.(Idler); ok {
		return ih.Idle()
	}
	return true
}

// Port implementation (the shell is the accelerator's Port).

// Now implements Port.
func (s *Shell) Now() sim.Cycle { return s.now }

// Recv implements Port. Dequeues feed the drain-gap EWMA: the gap between
// consecutive dequeues while a backlog remains is how fast the accelerator
// actually drains its queue, which is what the deadline shed in Deliver
// multiplies by the occupancy. Gaps across an empty queue are not drain
// time and are excluded by disarming the estimator.
func (s *Shell) Recv() (*msg.Message, bool) {
	if len(s.inq) == 0 {
		s.deqArmed = false
		return nil, false
	}
	m := s.inq[0]
	copy(s.inq, s.inq[1:])
	s.inq[len(s.inq)-1] = nil
	s.inq = s.inq[:len(s.inq)-1]
	if s.deqArmed {
		gap := s.now - s.lastDeq
		if s.svcGap == 0 {
			s.svcGap = gap
		} else {
			s.svcGap = (3*s.svcGap + gap) / 4
		}
	}
	s.lastDeq = s.now
	s.deqArmed = len(s.inq) > 0
	return m, true
}

// Send implements Port. A Quiescing shell may still send: delivering the
// replies it owes is exactly how it drains to quiescence.
func (s *Shell) Send(m *msg.Message) msg.ErrCode {
	if s.state != Running && s.state != Quiescing {
		return msg.EFailStopped
	}
	if s.send == nil {
		return msg.ENoRoute
	}
	return s.send(m)
}

// Fault implements Port.
func (s *Shell) Fault(ctx uint8, reason FaultReason) {
	s.faultCount.Inc()
	if s.fault != nil {
		s.fault(ctx, reason)
	}
}
