package apps

import (
	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// LoadBalancer is the scale-out splitter (paper §3 "Scalability": elements
// are "scaled out to meet the specific use case ... without manual
// optimization"). It exposes one service and spreads requests over N
// replica services, routing each reply back to its original requester.
//
// By default the balancer is health- and outstanding-aware: replicas are
// picked by power-of-two-choices on per-replica in-flight counts, replicas
// that NACK with fencing errors (fail-stopped, revoked, no-service) are
// ejected and re-admitted via half-open probes after a deterministic
// backoff, and requests bounced by one replica are re-dispatched to another
// before the error ever reaches the client. Static restores the historical
// blind round-robin.
type LoadBalancer struct {
	// Static disables health and load awareness: blind round-robin, no
	// ejection, no reroutes (manifest knob health="static").
	Static bool
	// RerouteLimit bounds how many times one request is re-dispatched to
	// another replica after a NACK before the error propagates to the
	// client (default 2).
	RerouteLimit int
	// EjectBase/EjectMax configure the deterministic (doubling) backoff
	// between a replica's ejection and its half-open probe. Defaults
	// 2048/65536 cycles.
	EjectBase sim.Cycle
	EjectMax  sim.Cycle

	reps    []replicaState
	rr      int
	rng     uint64
	nextSeq uint32
	pend    map[uint32]lbPend
	out     outQ
	waitQ   []uint32 // seqs blocked on local egress backpressure

	// PerReplica counts requests dispatched to each replica (cumulative).
	PerReplica []uint64
	// Completed counts responses (replies and NACKs) received back from
	// each replica, so PerReplica[i]-Completed[i] is what is actually
	// outstanding — the satellite fix for "PerReplica never decrements".
	Completed []uint64

	ejects, readmits, reroutes uint64
	ejectC, readmitC, rerouteC *sim.Counter
}

// replicaState is one replica's health/load view.
type replicaState struct {
	svc      msg.ServiceID
	inflight int
	ejected  bool
	probing  bool
	probeAt  sim.Cycle
	backoff  accel.Backoff
}

// lbPend remembers one client request while it is outstanding: where the
// reply goes, which replica holds it, and enough to re-dispatch it.
type lbPend struct {
	tile    msg.TileID
	ctx     uint8
	seq     uint32 // client's sequence number
	rep     int    // replica index currently holding it (-1 = undispatched)
	budget  uint32
	tries   int
	payload []byte
}

// NewLoadBalancer builds a health-aware balancer over the given replica
// services.
func NewLoadBalancer(replicas []msg.ServiceID) *LoadBalancer {
	l := &LoadBalancer{
		RerouteLimit: 2,
		EjectBase:    2048,
		EjectMax:     65536,
		pend:         make(map[uint32]lbPend),
		PerReplica:   make([]uint64, len(replicas)),
		Completed:    make([]uint64, len(replicas)),
		rng:          0x9E3779B97F4A7C15, // fixed seed: replays bit-exact
	}
	for _, svc := range replicas {
		l.reps = append(l.reps, replicaState{svc: svc})
	}
	return l
}

// AttachStats implements accel.StatsUser.
func (l *LoadBalancer) AttachStats(st *sim.Stats) {
	l.ejectC = st.Counter("apps.lb_ejects")
	l.readmitC = st.Counter("apps.lb_readmits")
	l.rerouteC = st.Counter("apps.lb_reroutes")
}

// Replicas reports the replica service list.
func (l *LoadBalancer) Replicas() []msg.ServiceID {
	out := make([]msg.ServiceID, len(l.reps))
	for i := range l.reps {
		out[i] = l.reps[i].svc
	}
	return out
}

// InFlight reports replica i's outstanding request count.
func (l *LoadBalancer) InFlight(i int) int { return l.reps[i].inflight }

// Ejected reports whether replica i is currently ejected.
func (l *LoadBalancer) Ejected(i int) bool { return l.reps[i].ejected }

// Ejects, Readmits and Reroutes report lifetime health-policy actions.
func (l *LoadBalancer) Ejects() uint64 { return l.ejects }

// Readmits reports how many ejected replicas came back via probes.
func (l *LoadBalancer) Readmits() uint64 { return l.readmits }

// Reroutes reports requests re-dispatched to another replica after a NACK.
func (l *LoadBalancer) Reroutes() uint64 { return l.reroutes }

// Name implements accel.Accelerator.
func (l *LoadBalancer) Name() string { return "loadbal" }

// Contexts implements accel.Accelerator.
func (l *LoadBalancer) Contexts() int { return 1 }

// Reset implements accel.Accelerator.
func (l *LoadBalancer) Reset() {
	l.pend = make(map[uint32]lbPend)
	l.out = outQ{}
	l.waitQ = nil
	l.rr = 0
	l.rng = 0x9E3779B97F4A7C15
	for i := range l.reps {
		svc := l.reps[i].svc
		l.reps[i] = replicaState{svc: svc}
	}
}

// Idle implements accel.Idler: nothing due to send and no dispatch
// waiting out local backpressure.
func (l *LoadBalancer) Idle() bool { return l.out.idle() && len(l.waitQ) == 0 }

// NextWake implements sim.Waker.
func (l *LoadBalancer) NextWake() sim.Cycle { return l.out.nextWake() }

// Quiescent implements accel.Quiescer: nothing queued to send, due or not,
// and no dispatch waiting out backpressure.
func (l *LoadBalancer) Quiescent() bool { return l.out.empty() && len(l.waitQ) == 0 }

// Tick implements accel.Accelerator. The balancer is wiring, not compute:
// it moves up to 4 messages per cycle.
func (l *LoadBalancer) Tick(p accel.Port) {
	// Deferred dispatches first (FIFO): requests that bounced off local
	// egress backpressure last cycle.
	if len(l.waitQ) > 0 {
		kept := l.waitQ[:0]
		blocked := false
		for _, seq := range l.waitQ {
			if blocked || !l.dispatch(p, seq) {
				kept = append(kept, seq)
				blocked = true
			}
		}
		l.waitQ = kept
	}
	for i := 0; i < 4; i++ {
		m, ok := p.Recv()
		if !ok {
			break
		}
		l.handle(p, m)
	}
	l.out.flush(p)
}

func (l *LoadBalancer) handle(p accel.Port, m *msg.Message) {
	now := p.Now()
	switch m.Type {
	case msg.TRequest:
		if len(l.reps) == 0 {
			l.out.push(now, m.ErrorReply(msg.ENoService))
			return
		}
		seq := l.nextSeq
		l.nextSeq++
		l.pend[seq] = lbPend{
			tile: m.SrcTile, ctx: m.SrcCtx, seq: m.Seq, rep: -1,
			budget: m.Budget, payload: m.Payload,
		}
		if !l.dispatch(p, seq) {
			l.waitQ = append(l.waitQ, seq)
		}
	case msg.TReply, msg.TError:
		pe, ok := l.pend[m.Seq]
		if !ok || pe.rep < 0 {
			return
		}
		rs := &l.reps[pe.rep]
		rs.inflight--
		l.Completed[pe.rep]++
		if m.Type == msg.TReply {
			if rs.probing {
				// Successful half-open probe: re-admit the replica.
				rs.probing = false
				if rs.ejected {
					rs.ejected = false
					rs.backoff.Reset()
					l.readmits++
					if l.readmitC != nil {
						l.readmitC.Inc()
					}
				}
			}
			delete(l.pend, m.Seq)
			l.out.push(now, &msg.Message{
				Type: m.Type, Err: m.Err, DstTile: pe.tile, DstCtx: pe.ctx,
				Seq: pe.seq, Payload: m.Payload,
			})
			return
		}
		// NACK from the replica.
		if !l.Static {
			if rs.probing {
				// Failed probe: stay ejected, doubled backoff.
				rs.probing = false
				rs.probeAt = now + rs.backoff.Next()
			} else if fencedErr(m.Err) {
				l.eject(pe.rep, now)
			}
			if reroutableErr(m.Err) && pe.tries < l.RerouteLimit {
				pe.tries++
				pe.rep = -1
				l.pend[m.Seq] = pe
				l.reroutes++
				if l.rerouteC != nil {
					l.rerouteC.Inc()
				}
				if !l.dispatch(p, m.Seq) {
					l.waitQ = append(l.waitQ, m.Seq)
				}
				return
			}
		}
		delete(l.pend, m.Seq)
		l.out.push(now, &msg.Message{
			Type: m.Type, Err: m.Err, DstTile: pe.tile, DstCtx: pe.ctx,
			Seq: pe.seq, Payload: m.Payload,
		})
	}
}

// dispatch picks a replica for pend[seq] and sends. Reports false when the
// send bounced off local backpressure and must be retried next tick; any
// other outcome (sent, or terminally answered with an error) consumes the
// seq from the caller's perspective.
func (l *LoadBalancer) dispatch(p accel.Port, seq uint32) bool {
	pe, ok := l.pend[seq]
	if !ok {
		return true
	}
	now := p.Now()
	for range l.reps {
		idx, found := l.pick(now)
		if !found {
			break
		}
		m := &msg.Message{
			Type: msg.TRequest, DstSvc: l.reps[idx].svc, Seq: seq,
			Budget: pe.budget, Payload: pe.payload,
		}
		switch p.Send(m) {
		case msg.EOK:
			pe.rep = idx
			l.pend[seq] = pe
			l.reps[idx].inflight++
			l.PerReplica[idx]++
			return true
		case msg.ERateLimited, msg.EBusy:
			// Local egress backpressure, not a replica problem: undo a
			// probe claim and retry next tick.
			if l.reps[idx].probing && l.reps[idx].ejected {
				l.reps[idx].probing = false
			}
			return false
		default:
			// Local fenced denial for this replica (its endpoint is
			// revoked or its tile fail-stopped): eject it and try the
			// next one right now.
			if l.Static {
				delete(l.pend, seq)
				l.out.push(now, &msg.Message{
					Type: msg.TError, Err: msg.EFailStopped, DstTile: pe.tile,
					DstCtx: pe.ctx, Seq: pe.seq,
				})
				return true
			}
			l.eject(idx, now)
		}
	}
	// No replica can take it: shed at the balancer.
	delete(l.pend, seq)
	l.out.push(now, &msg.Message{
		Type: msg.TError, Err: msg.EBusy, DstTile: pe.tile, DstCtx: pe.ctx,
		Seq: pe.seq,
	})
	return true
}

// pick chooses a replica: a due half-open probe first (re-admission rides
// on live requests), else power-of-two-choices on in-flight among healthy
// replicas (blind round-robin in Static mode).
func (l *LoadBalancer) pick(now sim.Cycle) (int, bool) {
	if len(l.reps) == 0 {
		return 0, false
	}
	if l.Static {
		idx := l.rr % len(l.reps)
		l.rr++
		return idx, true
	}
	for i := range l.reps {
		rs := &l.reps[i]
		if rs.ejected && !rs.probing && now >= rs.probeAt {
			rs.probing = true
			return i, true
		}
	}
	cand := make([]int, 0, len(l.reps))
	for i := range l.reps {
		if !l.reps[i].ejected {
			cand = append(cand, i)
		}
	}
	switch len(cand) {
	case 0:
		return 0, false
	case 1:
		return cand[0], true
	}
	a := l.rngN(len(cand))
	b := l.rngN(len(cand) - 1)
	if b >= a {
		b++
	}
	i, j := cand[a], cand[b]
	if l.reps[j].inflight < l.reps[i].inflight ||
		(l.reps[j].inflight == l.reps[i].inflight && j < i) {
		return j, true
	}
	return i, true
}

// eject marks a replica unhealthy and schedules its half-open probe.
func (l *LoadBalancer) eject(idx int, now sim.Cycle) {
	rs := &l.reps[idx]
	rs.probing = false
	if rs.backoff.Base == 0 {
		rs.backoff = accel.Backoff{Base: l.EjectBase, Max: l.EjectMax}
	}
	rs.probeAt = now + rs.backoff.Next()
	if !rs.ejected {
		rs.ejected = true
		l.ejects++
		if l.ejectC != nil {
			l.ejectC.Inc()
		}
	}
}

// rngN returns a deterministic value in [0, n) (xorshift64; tile-local
// state, so the sequence is a pure function of the message history).
func (l *LoadBalancer) rngN(n int) int {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return int(l.rng % uint64(n))
}

// fencedErr reports whether a NACK code means the replica itself is fenced
// (as opposed to merely busy).
func fencedErr(e msg.ErrCode) bool {
	return e == msg.EFailStopped || e == msg.ERevoked || e == msg.ENoService
}

// reroutableErr reports whether a NACKed request is worth handing to a
// different replica.
func reroutableErr(e msg.ErrCode) bool {
	return fencedErr(e) || e == msg.EBusy || e == msg.ERateLimited
}

// Faulty wraps an accelerator and injects a panic after the wrapped logic
// has received the given number of messages — the fault-injection harness
// for E8/E9.
type Faulty struct {
	accel.Accelerator
	// PanicAfter is the message count that triggers the fault.
	PanicAfter int

	seen int
}

// NewFaulty wraps a.
func NewFaulty(a accel.Accelerator, panicAfter int) *Faulty {
	return &Faulty{Accelerator: a, PanicAfter: panicAfter}
}

// faultyPort counts Recv results so the wrapper knows when to blow up.
type faultyPort struct {
	accel.Port
	f *Faulty
}

func (fp *faultyPort) Recv() (*msg.Message, bool) {
	m, ok := fp.Port.Recv()
	if ok {
		fp.f.seen++
	}
	return m, ok
}

// Tick implements accel.Accelerator.
func (f *Faulty) Tick(p accel.Port) {
	if f.PanicAfter > 0 && f.seen >= f.PanicAfter {
		panic("apps: injected fault")
	}
	f.Accelerator.Tick(&faultyPort{Port: p, f: f})
}

// Idle implements accel.Idler. An armed trigger counts as work: the next
// Tick panics, which is very much not a no-op. Otherwise defer to the
// wrapped accelerator (embedding does not forward Idle — the embedded field
// is the plain Accelerator interface — so this must be explicit).
func (f *Faulty) Idle() bool {
	if f.PanicAfter > 0 && f.seen >= f.PanicAfter {
		return false
	}
	ih, ok := f.Accelerator.(accel.Idler)
	return ok && ih.Idle()
}

// NextWake implements sim.Waker, forwarding the wrapped accelerator's next
// self-timed cycle (explicit for the same reason as Idle).
func (f *Faulty) NextWake() sim.Cycle {
	if w, ok := f.Accelerator.(sim.Waker); ok {
		return w.NextWake()
	}
	return 0
}

// Reset implements accel.Accelerator; the wrapped accelerator restarts
// clean and the trigger re-arms.
func (f *Faulty) Reset() {
	f.seen = 0
	f.Accelerator.Reset()
}
