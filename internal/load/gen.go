package load

import (
	"fmt"

	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/obs"
	"apiary/internal/sim"
)

// BacklogCap bounds the generator's send backlog: arrivals the NoC or the
// local monitor pushed back on wait here (keeping their arrival stamp — the
// open loop never re-times a request), and past the cap new arrivals are
// shed immediately. The cap is what makes a saturated run terminate with a
// measured shed rate instead of an unbounded queue.
const BacklogCap = 4096

// pend is the in-flight record for one sent request.
type pend struct {
	arriveAt sim.Cycle
	class    uint8
	phase    uint8
}

// deadline is one entry in the timeout FIFO. Timeouts are uniform per
// scenario and sends are monotone in time, so deadlines expire in append
// order — a head check per tick replaces any sorted scan.
type deadline struct {
	seq uint32
	at  sim.Cycle
}

// PhaseAgg accumulates one phase's client-visible results. Completions are
// attributed to the phase that *offered* the arrival, even when the reply
// lands after the boundary — the per-phase curve answers "what did requests
// offered at this rate experience".
type PhaseAgg struct {
	Name     string
	Offered  uint64 // arrivals emitted in this phase
	OK       uint64
	Denied   uint64
	Timeout  uint64
	Shed     uint64
	Lat      sim.Histogram // arrival-to-reply latency of OK completions, cycles
	ClassCnt []uint64      // arrivals per class index
}

// Generator is the open-loop load source: an accelerator that converts a
// Scenario's rate curve into arrivals on the engine clock, multiplexes the
// session population over one pooled client tile, and records the
// client-visible stream.
//
// Open-loop discipline: latency is measured from the scheduled arrival
// cycle, and the generator never retransmits — a denial or timeout is a
// client-visible outcome, not a reason to re-offer. A slow server
// therefore cannot slow the question rate down (no coordinated omission).
type Generator struct {
	scn     *Scenario
	target  msg.ServiceID
	timeout sim.Cycle
	end     sim.Cycle

	// Share i of n: this generator carries 1/n of the offered rate and
	// sessions [base, base+count) of the population.
	shareInc  uint64 // Q32 per-cycle increment divisor applied
	sessBase  int
	sessCount int

	// Events, when set, receives a scenario-phase record at each boundary;
	// Board labels it (-1 for single-board runs).
	Events *obs.EventLog
	Board  int

	rng      *sim.RNG
	acc      uint64    // Q32 arrival accumulator, settled through accAt
	accAt    sim.Cycle // last cycle acc accrued (or was withheld)
	seq      uint32
	curPhase int
	synced   bool // acc keeps the generator's clock (false until the next tick after a withheld cycle)
	lastNow  sim.Cycle

	// wake is the next self-timed cycle (0 = none), planned on demand once
	// per tick; planned reports it current.
	wake    sim.Cycle
	planned bool
	// Rate-segment cache: the accumulator increment segInc holds for every
	// cycle in [segFrom, segEnd).
	segFrom, segEnd sim.Cycle
	segInc          uint64

	pending   map[uint32]pend
	deadlines []deadline
	backlog   []Arrival
	rec       Recording
	replay    *Recording
	replayIdx int

	phases   []PhaseAgg
	sessHits []uint32 // per-session request count (the "session record")
	weights  []int
	totalW   int

	arrC, okC, errC, shedC *sim.Counter
}

// NewGenerator builds the load source for scn, addressing target (the
// scenario's service on a single board, the fleet proxy doorway on a
// client board). share/shares split the offered rate and the session
// population across pooled generators; seed must already be derived
// per-generator by the caller.
func NewGenerator(scn *Scenario, target msg.ServiceID, seed uint64, share, shares int) *Generator {
	if shares < 1 {
		shares = 1
	}
	timeout := scn.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	per := scn.Sessions / shares
	base := share * per
	count := per
	if share == shares-1 {
		count = scn.Sessions - base // last share absorbs the remainder
	}
	g := &Generator{
		scn:       scn,
		target:    target,
		timeout:   timeout,
		end:       scn.Dur(),
		shareInc:  uint64(shares),
		sessBase:  base,
		sessCount: count,
		Board:     -1,
		rng:       sim.NewRNG(seed),
		pending:   make(map[uint32]pend),
		sessHits:  make([]uint32, count),
		totalW:    scn.TotalWeight(),
	}
	for _, c := range scn.Classes {
		g.weights = append(g.weights, c.Weight)
	}
	for _, p := range scn.Phases {
		g.phases = append(g.phases, PhaseAgg{
			Name:     p.Name,
			ClassCnt: make([]uint64, len(scn.Classes)),
		})
	}
	return g
}

// SetReplay switches the generator to replay mode: arrivals come from the
// recording (same seq/session/class at the same cycles) instead of the
// rate engine, so the delivered stream — and its fingerprint — must match
// the recorded run bit-exactly.
func (g *Generator) SetReplay(rec *Recording) { g.replay = rec }

// Recording exposes the captured stream.
func (g *Generator) Recording() *Recording { return &g.rec }

// Scenario exposes the compiled scenario driving this generator.
func (g *Generator) Scenario() *Scenario { return g.scn }

// Name implements accel.Accelerator.
func (g *Generator) Name() string { return "loadgen" }

// Contexts implements accel.Accelerator.
func (g *Generator) Contexts() int { return 1 }

// Reset implements accel.Accelerator.
func (g *Generator) Reset() {
	g.pending = make(map[uint32]pend)
	g.deadlines = nil
	g.backlog = nil
	g.planned = false
}

// AttachStats implements accel.StatsUser: headline counters surface in
// /metrics without constructor plumbing.
func (g *Generator) AttachStats(st *sim.Stats) {
	g.arrC = st.Counter("load.arrivals")
	g.okC = st.Counter("load.ok")
	g.errC = st.Counter("load.errors")
	g.shedC = st.Counter("load.shed")
}

// Done reports whether the scenario has ended and every arrival resolved.
func (g *Generator) Done(now sim.Cycle) bool {
	return now >= g.end && len(g.pending) == 0 && len(g.backlog) == 0 &&
		(g.replay == nil || g.replayIdx >= len(g.replay.Arrivals))
}

// Idle implements accel.Idler. The generator is a traffic source that
// sleeps between its self-timed cycles: it is idle when nothing waits in
// the send backlog and its next arrival, rate edge, phase boundary or
// timeout is not due next cycle (NextWake). Completions arrive through the
// shell queue, which wakes the tile.
func (g *Generator) Idle() bool {
	if !g.synced || len(g.backlog) > 0 {
		return false
	}
	w := g.NextWake()
	return w == 0 || w > g.lastNow+1
}

// NextWake implements sim.Waker.
func (g *Generator) NextWake() sim.Cycle {
	if !g.planned {
		g.wake = g.plan()
		g.planned = true
	}
	return g.wake
}

// Quiescent implements accel.Quiescer: no request awaiting its reply and
// none waiting to be sent.
func (g *Generator) Quiescent() bool { return len(g.pending) == 0 && len(g.backlog) == 0 }

// Withhold implements accel.Withholder: the cycles before now were slept
// and are settled; from now until the next tick the shell withholds the
// generator (a hang, a stopped tile), and those cycles accrue no arrivals,
// exactly as if it were never ticked. The next tick restarts the clock.
func (g *Generator) Withhold(now sim.Cycle) {
	if g.synced {
		g.settle(now - 1)
		g.synced = false
	}
}

var (
	_ accel.Idler      = (*Generator)(nil)
	_ accel.Quiescer   = (*Generator)(nil)
	_ accel.Withholder = (*Generator)(nil)
	_ sim.Waker        = (*Generator)(nil)
)

// inc is this generator's Q32 accumulator increment at cycle t, cached per
// rate segment (a whole flat stretch, or one cycle of a ramp).
func (g *Generator) inc(t sim.Cycle) uint64 {
	if t < g.segFrom || t >= g.segEnd {
		g.segFrom, g.segEnd = t, g.scn.RateEdge(t)
		g.segInc = incQ32(g.scn.RateAt(t)) / g.shareInc
	}
	return g.segInc
}

// settle accrues the accumulator through cycle t (clamped to the scenario
// end), one increment per cycle since accAt, in closed form. The cycles a
// sleeping generator was not ticked all share one rate and cross no
// arrival — its wake never passes a rate edge or its next arrival — so the
// closed form equals per-cycle accrual.
func (g *Generator) settle(t sim.Cycle) {
	if g.end > 0 && t >= g.end {
		t = g.end - 1
	}
	if t > g.accAt {
		g.acc += g.inc(g.accAt+1) * uint64(t-g.accAt)
		g.accAt = t
	}
}

// Tick implements accel.Accelerator.
func (g *Generator) Tick(p accel.Port) {
	now := p.Now()
	if !g.synced {
		g.accAt = now - 1 // no unticked cycle before this one accrues
		g.synced = true
	}
	g.lastNow = now
	g.planned = false

	// Phase tracking (boundaries land between ticks; observation only).
	if now < g.end {
		if pi, _ := g.scn.PhaseAt(now); pi != g.curPhase {
			g.curPhase = pi
			if g.Events != nil {
				g.Events.Record(now, obs.EvScenarioPhase, "scenario clock",
					fmt.Sprintf("phase %q begins (rate %d rpMc)",
						g.scn.Phases[pi].Name, g.scn.RateAt(now)))
			}
		}
	}

	// 1. Completions: match replies against in-flight arrivals.
	for {
		m, ok := p.Recv()
		if !ok {
			break
		}
		pd, known := g.pending[m.Seq]
		if !known {
			continue // late reply to a timed-out request
		}
		switch m.Type {
		case msg.TReply, msg.TMemReply:
			delete(g.pending, m.Seq)
			g.complete(m.Seq, OutcomeOK, now, &pd)
		case msg.TError:
			delete(g.pending, m.Seq)
			g.complete(m.Seq, OutcomeDenied, now, &pd)
		}
	}

	// 2. Timeouts: deadlines expire in FIFO order (uniform timeout).
	for len(g.deadlines) > 0 && g.deadlines[0].at <= now {
		dl := g.deadlines[0]
		g.deadlines = g.deadlines[1:]
		if pd, ok := g.pending[dl.seq]; ok {
			delete(g.pending, dl.seq)
			g.complete(dl.seq, OutcomeTimeout, now, &pd)
		}
	}

	// 3. New arrivals, from the rate curve or the replay log.
	if g.replay != nil {
		for g.replayIdx < len(g.replay.Arrivals) && g.replay.Arrivals[g.replayIdx].At <= now {
			a := g.replay.Arrivals[g.replayIdx]
			g.replayIdx++
			g.admit(a)
		}
	} else if now < g.end {
		g.settle(now - 1)
		g.acc += g.inc(now)
		g.accAt = now
		for g.acc >= 1<<rateQ {
			g.acc -= 1 << rateQ
			cls := g.drawClass()
			sess := g.sessBase
			if g.sessCount > 0 {
				off := g.rng.Intn(g.sessCount)
				sess += off
				g.sessHits[off]++
			}
			a := Arrival{Seq: g.seq, Session: uint32(sess), Class: cls, At: now}
			g.seq++
			g.admit(a)
		}
	}

	// 4. Flush the send backlog, preserving arrival order (bounded work
	// per tick; local push-back parks the head for the next cycle).
	for tries := 0; tries < 4 && len(g.backlog) > 0; tries++ {
		a := g.backlog[0]
		code := p.Send(g.request(a))
		switch code {
		case msg.EOK:
			g.popBacklog()
			pi, _ := g.scn.PhaseAt(a.At)
			g.pending[a.Seq] = pend{arriveAt: a.At, class: a.Class, phase: uint8(pi)}
			g.deadlines = append(g.deadlines, deadline{seq: a.Seq, at: now + g.timeout})
		case msg.ERateLimited, msg.EBusy:
			return // transient local push-back: keep the stamp, retry next tick
		default:
			// Hard local denial (no capability, fenced): client-visible.
			g.popBacklog()
			pi, _ := g.scn.PhaseAt(a.At)
			pd := pend{arriveAt: a.At, class: a.Class, phase: uint8(pi)}
			g.complete(a.Seq, OutcomeDenied, now, &pd)
		}
	}
}

// plan returns the first cycle after the last tick at which a tick does
// work: the head timeout, the next phase boundary (its phase record falls
// due), and the next arrival — from the replay log, or on the rate curve
// the next accumulator crossing or the end of the cached rate segment,
// whichever comes first. 0 means none. Waking early is always safe (the
// tick just settles the accumulator), so a cycle the segment cache does
// not cover wakes conservatively.
func (g *Generator) plan() sim.Cycle {
	var wake sim.Cycle
	soonest := func(at sim.Cycle) {
		if at != 0 && (wake == 0 || at < wake) {
			wake = at
		}
	}
	if len(g.deadlines) > 0 {
		soonest(g.deadlines[0].at)
	}
	if g.replay != nil {
		if g.replayIdx < len(g.replay.Arrivals) {
			soonest(g.replay.Arrivals[g.replayIdx].At)
		}
		if edge := g.scn.NextBoundary(g.lastNow); edge < g.end {
			soonest(edge)
		}
		return wake
	}
	// acc is settled through accAt; segments never cross a phase
	// boundary, so a boundary is always a segment edge.
	if next := g.accAt + 1; g.lastNow+1 < g.end && next < g.end {
		if next < g.segFrom || next >= g.segEnd {
			soonest(next)
			return wake
		}
		edge := g.segEnd
		// Closed form of the per-cycle accrual: the k-th cycle from next
		// on brings acc to 2^32 when acc + k*inc >= 2^32.
		if inc := g.segInc; inc > 0 {
			if at := g.accAt + sim.Cycle((1<<rateQ-g.acc+inc-1)/inc); at < edge {
				edge = at
			}
		}
		if edge < g.end {
			soonest(edge)
		}
	}
	return wake
}

// admit records one arrival and queues it for sending, shedding when the
// backlog is full.
func (g *Generator) admit(a Arrival) {
	g.rec.Arrivals = append(g.rec.Arrivals, a)
	pi, _ := g.scn.PhaseAt(a.At)
	ph := &g.phases[pi]
	ph.Offered++
	if int(a.Class) < len(ph.ClassCnt) {
		ph.ClassCnt[a.Class]++
	}
	if g.arrC != nil {
		g.arrC.Inc()
	}
	if len(g.backlog) >= BacklogCap {
		pd := pend{arriveAt: a.At, class: a.Class, phase: uint8(pi)}
		g.complete(a.Seq, OutcomeShed, a.At, &pd)
		return
	}
	g.backlog = append(g.backlog, a)
}

// popBacklog drops the backlog head.
func (g *Generator) popBacklog() {
	copy(g.backlog, g.backlog[1:])
	g.backlog = g.backlog[:len(g.backlog)-1]
}

// complete records one client-visible outcome.
func (g *Generator) complete(seq uint32, out Outcome, now sim.Cycle, pd *pend) {
	g.rec.Completions = append(g.rec.Completions, Completion{Seq: seq, Outcome: out, At: now})
	ph := &g.phases[pd.phase]
	switch out {
	case OutcomeOK:
		ph.OK++
		ph.Lat.Observe(float64(now - pd.arriveAt))
		if g.okC != nil {
			g.okC.Inc()
		}
	case OutcomeDenied:
		ph.Denied++
		if g.errC != nil {
			g.errC.Inc()
		}
	case OutcomeTimeout:
		ph.Timeout++
		if g.errC != nil {
			g.errC.Inc()
		}
	case OutcomeShed:
		ph.Shed++
		if g.shedC != nil {
			g.shedC.Inc()
		}
	}
}

// drawClass picks a request class from the weighted mix.
func (g *Generator) drawClass() uint8 {
	if g.totalW <= 0 || len(g.weights) == 0 {
		return 0
	}
	v := g.rng.Intn(g.totalW)
	for i, w := range g.weights {
		if v < w {
			return uint8(i)
		}
		v -= w
	}
	return uint8(len(g.weights) - 1)
}

// request builds the wire message for one arrival: payload sized by the
// class, first bytes stamped with seq/session so the backend sees distinct
// requests without an RNG draw per byte.
func (g *Generator) request(a Arrival) *msg.Message {
	size := 1
	if int(a.Class) < len(g.scn.Classes) {
		size = g.scn.Classes[a.Class].Bytes
	}
	pl := make([]byte, size)
	for i := 0; i < size && i < 4; i++ {
		pl[i] = byte(a.Seq >> (8 * i))
	}
	if size > 4 {
		pl[4] = byte(a.Session)
	}
	return &msg.Message{Type: msg.TRequest, DstSvc: g.target, Seq: a.Seq, Payload: pl}
}

// SessionsTouched counts distinct sessions that issued at least one
// request.
func (g *Generator) SessionsTouched() int {
	n := 0
	for _, c := range g.sessHits {
		if c > 0 {
			n++
		}
	}
	return n
}

// Phases exposes the per-phase aggregates (live; callers snapshot outside
// the tick phase — at barriers, after Run steps, or holding the daemon's
// step mutex).
func (g *Generator) Phases() []PhaseAgg { return g.phases }

// Totals sums the per-phase aggregates.
func (g *Generator) Totals() (offered, ok, denied, timeout, shed uint64) {
	for i := range g.phases {
		ph := &g.phases[i]
		offered += ph.Offered
		ok += ph.OK
		denied += ph.Denied
		timeout += ph.Timeout
		shed += ph.Shed
	}
	return
}
