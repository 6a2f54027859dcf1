package apps

import (
	"sort"

	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// Requester is the synthetic closed/open-loop client accelerator used by
// experiments: it issues requests to a target service at a configured gap,
// matches replies by sequence number and records end-to-end latency.
type Requester struct {
	Target msg.ServiceID
	// Payload generates the i-th request body.
	Payload func(i int) []byte
	// Total requests to issue (0 = unlimited).
	Total int
	// GapCycles between issues (closed loop if InFlight bound hit).
	GapCycles sim.Cycle
	// MaxInFlight bounds outstanding requests (default 8).
	MaxInFlight int
	// TimeoutCycles expires an unanswered request (counted as an error).
	// Requests can vanish without a NACK — e.g. they were queued in a
	// shell that fail-stopped — so a client without timeouts deadlocks
	// exactly when the system it measures misbehaves. Default 100000.
	TimeoutCycles sim.Cycle
	// RetryLimit is how many times a timed-out (or, with RetryNacks, a
	// transiently NACKed) request is retransmitted with the same sequence
	// number before being abandoned as an error. 0 keeps the historical
	// abandon-on-first-timeout behavior.
	RetryLimit int
	// BackoffBase/BackoffMax configure deterministic exponential backoff
	// applied to the issue pacing after a timeout, denial or TError —
	// clients of a quarantined service retreat instead of hammering its
	// monitor. Zero BackoffBase disables backoff.
	BackoffBase sim.Cycle
	BackoffMax  sim.Cycle
	// Budget, when nonzero, stamps every request with a queueing deadline
	// (msg.Message.Budget): the destination shell sheds the request with
	// EBusy when its admission queue cannot meet it.
	Budget sim.Cycle
	// BreakerThreshold arms a circuit breaker: after this many consecutive
	// EBusy push-backs the client stops issuing for a (doubling) cooldown
	// and then sends a single half-open probe. 0 disables the breaker.
	BreakerThreshold int
	// RetryNacks treats transient failures — EBusy, EFailStopped, ERevoked,
	// ERateLimited, ENoService, whether remote NACKs or local denials — as
	// retryable within RetryLimit, instead of counting them as errors
	// immediately. This is what rides out a failover: requests bounced off
	// a fenced primary are retransmitted (after backoff) and land on the
	// replica once the kernel re-binds the service.
	RetryNacks bool

	sent      int
	inFlight  int
	nextAt    sim.Cycle
	sentAt    map[uint32]sim.Cycle
	retries   map[uint32]int
	resendQ   []resend
	backoff   accel.Backoff
	breaker   accel.Breaker
	retried   int
	busyNacks int
	latency   *sim.Histogram
	errs      int
	responses int
	lastReply []byte

	breakerOpenC  *sim.Counter
	breakerCloseC *sim.Counter
	nackRetryC    *sim.Counter
}

// resend is a retransmit scheduled by a transient NACK: the same sequence
// number goes out again once the backoff delay elapses (and the breaker
// admits it).
type resend struct {
	seq uint32
	at  sim.Cycle
}

// NewRequester builds a client for target issuing total requests.
func NewRequester(target msg.ServiceID, total int, gap sim.Cycle,
	payload func(i int) []byte, lat *sim.Histogram) *Requester {
	return &Requester{
		Target: target, Total: total, GapCycles: gap, Payload: payload,
		MaxInFlight: 8, TimeoutCycles: 100_000,
		sentAt:  make(map[uint32]sim.Cycle),
		retries: make(map[uint32]int), latency: lat,
	}
}

// AttachStats implements accel.StatsUser: breaker transitions and NACK
// retries surface as counters when the kernel places the client.
func (r *Requester) AttachStats(st *sim.Stats) {
	r.breakerOpenC = st.Counter("apps.breaker_opens")
	r.breakerCloseC = st.Counter("apps.breaker_closes")
	r.nackRetryC = st.Counter("apps.nack_retries")
}

// Done reports whether every request has been answered.
func (r *Requester) Done() bool {
	return r.Total > 0 && r.responses+r.errs >= r.Total
}

// Responses reports successful replies received.
func (r *Requester) Responses() int { return r.responses }

// Errors reports TError replies received.
func (r *Requester) Errors() int { return r.errs }

// LastReply returns the most recent reply payload.
func (r *Requester) LastReply() []byte { return r.lastReply }

// Retransmits reports how many requests were resent (timeouts and NACKs).
func (r *Requester) Retransmits() int { return r.retried }

// BusyNacks reports how many EBusy NACKs (load sheds) the client absorbed.
func (r *Requester) BusyNacks() int { return r.busyNacks }

// Breaker exposes the circuit breaker (state, open/close counts).
func (r *Requester) Breaker() *accel.Breaker { return &r.breaker }

// Name implements accel.Accelerator.
func (r *Requester) Name() string { return "requester" }

// Contexts implements accel.Accelerator.
func (r *Requester) Contexts() int { return 1 }

// Reset implements accel.Accelerator.
func (r *Requester) Reset() {
	r.sentAt = make(map[uint32]sim.Cycle)
	r.retries = make(map[uint32]int)
	r.resendQ = nil
	r.inFlight = 0
	r.backoff.Reset()
	r.breaker.Reset()
}

// Idle implements accel.Idler. A requester is a traffic source: it is busy
// while it still has requests to issue, a gap timer running, or replies
// outstanding (the timeout scan must keep running for those). Only a
// finished client — everything sent, nothing in flight — is idle.
func (r *Requester) Idle() bool {
	return r.Total > 0 && r.sent >= r.Total && r.inFlight == 0
}

// transientErr reports whether a NACK/denial code is worth retrying: the
// condition clears on its own (overload drains, a fenced service fails
// over, a revoked endpoint is re-minted after recovery, a quiescing tile
// resumes or its replacement comes up). EQuiescing mirrors the ERevoked
// treatment from the quarantine path: the bounce is the system doing its
// job, so it is retryable AND — because only EBusy feeds the breaker via
// onBusy — exempt from the circuit-breaker trip budget. A client rides out
// a migration window on backoff alone, without its breaker opening.
func transientErr(e msg.ErrCode) bool {
	switch e {
	case msg.EBusy, msg.EFailStopped, msg.ERevoked, msg.ERateLimited,
		msg.ENoService, msg.EQuiescing:
		return true
	}
	return false
}

// request builds the wire message for sequence seq.
func (r *Requester) request(seq uint32) *msg.Message {
	return &msg.Message{
		Type: msg.TRequest, DstSvc: r.Target, Seq: seq,
		Budget: uint32(r.Budget), Payload: r.Payload(int(seq)),
	}
}

// Tick implements accel.Accelerator.
func (r *Requester) Tick(p accel.Port) {
	now := p.Now()
	if r.BreakerThreshold > 0 && r.breaker.Threshold != r.BreakerThreshold {
		r.breaker.Threshold = r.BreakerThreshold
		base := r.BackoffBase
		if base == 0 {
			base = 1024
		}
		r.breaker.Cooldown = accel.Backoff{Base: base, Max: r.BackoffMax}
	}

	for {
		m, ok := p.Recv()
		if !ok {
			break
		}
		at, known := r.sentAt[m.Seq]
		if !known {
			// A reply can still arrive for a sequence parked in the resend
			// queue (a duplicate answer to an earlier transmission): accept
			// successes, drop anything else — the resend already covers it.
			if (m.Type == msg.TReply || m.Type == msg.TMemReply) && r.dropResend(m.Seq) {
				delete(r.retries, m.Seq)
				r.inFlight--
				r.responses++
				r.lastReply = m.Payload
				r.onSuccess()
			}
			continue
		}
		switch m.Type {
		case msg.TReply, msg.TMemReply:
			delete(r.sentAt, m.Seq)
			delete(r.retries, m.Seq)
			r.inFlight--
			r.responses++
			r.lastReply = m.Payload
			if r.latency != nil {
				r.latency.Observe(float64(now - at))
			}
			r.onSuccess()
		case msg.TError:
			if m.Err == msg.EBusy {
				r.busyNacks++
				r.onBusy(now)
			}
			if r.RetryNacks && transientErr(m.Err) &&
				r.RetryLimit > 0 && r.retries[m.Seq] < r.RetryLimit {
				// Still outstanding: same seq goes out again after backoff.
				r.retries[m.Seq]++
				r.retried++
				if r.nackRetryC != nil {
					r.nackRetryC.Inc()
				}
				delete(r.sentAt, m.Seq)
				r.holdOff(now)
				r.resendQ = append(r.resendQ, resend{seq: m.Seq, at: now + r.retransmitDelay()})
				continue
			}
			delete(r.sentAt, m.Seq)
			delete(r.retries, m.Seq)
			r.inFlight--
			r.errs++
			r.holdOff(now)
		}
	}

	// Fire scheduled retransmits (FIFO, so the order never depends on map
	// iteration; the breaker gates them like fresh issues — in half-open
	// the first due resend is the probe).
	if len(r.resendQ) > 0 {
		kept := r.resendQ[:0]
		for i, rs := range r.resendQ {
			if rs.at > now || !r.breaker.Allow(now) {
				kept = append(kept, r.resendQ[i])
				continue
			}
			switch p.Send(r.request(rs.seq)) {
			case msg.EOK:
				r.sentAt[rs.seq] = now
			case msg.ERateLimited, msg.EBusy:
				kept = append(kept, resend{seq: rs.seq, at: now + 1})
			default:
				// Hard local denial (revoked/fenced mid-failover): retry
				// within the budget, abandon past it.
				if r.RetryNacks && r.retries[rs.seq] < r.RetryLimit {
					r.retries[rs.seq]++
					r.retried++
					r.holdOff(now)
					kept = append(kept, resend{seq: rs.seq, at: now + r.retransmitDelay()})
				} else {
					delete(r.retries, rs.seq)
					r.inFlight--
					r.errs++
					r.holdOff(now)
				}
			}
		}
		r.resendQ = kept
	}

	// Expire lost requests (scan sparsely; in-flight counts are tiny).
	// Expired sequences are collected and sorted before retransmission so
	// the resend order never depends on map iteration order — retransmits
	// enter the NoC, and a nondeterministic order there would break the
	// run-to-run bit-exactness the chaos tests assert.
	if r.TimeoutCycles > 0 && r.inFlight > 0 && now%512 == 0 {
		var expired []uint32
		for seq, at := range r.sentAt {
			if now-at > r.TimeoutCycles {
				expired = append(expired, seq)
			}
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
		for _, seq := range expired {
			if r.RetryLimit > 0 && r.retries[seq] < r.RetryLimit {
				switch p.Send(r.request(seq)) {
				case msg.EOK, msg.ERateLimited, msg.EBusy:
					// Sent (or transient push-back: leave it armed and let
					// the next scan retry). Either way the attempt counts.
					r.retries[seq]++
					r.retried++
					r.sentAt[seq] = now
					r.holdOff(now)
					continue
				}
				// Hard denial: fall through and abandon.
			}
			delete(r.sentAt, seq)
			delete(r.retries, seq)
			r.inFlight--
			r.errs++
			r.holdOff(now)
			// A silently lost request is a failure verdict for the breaker
			// too; without this a half-open probe that vanishes would wedge
			// the breaker with its probe slot taken forever.
			r.onBusy(now)
		}
	}

	if (r.Total == 0 || r.sent < r.Total) && now >= r.nextAt &&
		r.inFlight < r.MaxInFlight && r.breaker.Allow(now) {
		seq := uint32(r.sent)
		code := p.Send(r.request(seq))
		switch code {
		case msg.EOK:
			r.sentAt[seq] = now
			r.sent++
			r.inFlight++
			r.nextAt = now + r.GapCycles
		case msg.ERateLimited, msg.EBusy:
			// Retry next tick.
		default:
			if r.RetryNacks && transientErr(code) && r.RetryLimit > 0 {
				// Transient local denial (e.g. the endpoint is being
				// re-minted mid-failover): park the request for resend
				// instead of losing it.
				r.sent++
				r.inFlight++
				r.retries[seq] = 1
				r.retried++
				if r.nackRetryC != nil {
					r.nackRetryC.Inc()
				}
				r.holdOff(now)
				r.resendQ = append(r.resendQ, resend{seq: seq, at: now + r.retransmitDelay()})
				r.nextAt = now + r.GapCycles
				return
			}
			// Hard denial (no capability, no service): count as error so
			// experiments observe it, and move on — after backing off, so a
			// revoked endpoint is probed at a decaying rate rather than
			// every GapCycles.
			r.errs++
			r.sent++
			r.holdOff(now)
		}
	}
}

// dropResend removes seq from the resend queue, reporting whether it was
// there.
func (r *Requester) dropResend(seq uint32) bool {
	for i, rs := range r.resendQ {
		if rs.seq == seq {
			r.resendQ = append(r.resendQ[:i], r.resendQ[i+1:]...)
			return true
		}
	}
	return false
}

// onSuccess feeds the breaker a success and counts the close if it was open.
func (r *Requester) onSuccess() {
	r.backoff.Reset()
	if r.breaker.OnSuccess() && r.breakerCloseC != nil {
		r.breakerCloseC.Inc()
	}
}

// onBusy feeds the breaker a failure and counts the trip if it opened.
func (r *Requester) onBusy(now sim.Cycle) {
	if r.breaker.OnBusy(now) && r.breakerOpenC != nil {
		r.breakerOpenC.Inc()
	}
}

// retransmitDelay is the deterministic delay before a NACKed request goes
// out again: the current backoff step, or a small fixed delay when backoff
// is disabled (an immediate resend would just bounce again).
func (r *Requester) retransmitDelay() sim.Cycle {
	if r.BackoffBase == 0 {
		return 64
	}
	return r.backoff.Current()
}

// holdOff pushes the next issue out by the current backoff delay (no-op
// when backoff is disabled or the pacing already waits longer).
func (r *Requester) holdOff(now sim.Cycle) {
	if r.BackoffBase == 0 {
		return
	}
	r.backoff.Base, r.backoff.Max = r.BackoffBase, r.BackoffMax
	if at := now + r.backoff.Next(); at > r.nextAt {
		r.nextAt = at
	}
}
