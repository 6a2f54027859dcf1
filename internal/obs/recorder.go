// Package obs is Apiary's observability plane: a message flight recorder
// built on the NoC's sampled lifecycle spans, a windowed time-series sampler
// over links/VCs/tiles/monitor verdicts, an ASCII/JSON NoC heatmap, and
// Prometheus text-format exposition of every sim.Stats metric. It fills in
// the paper's Programmability promise of "debugging and tracing support at
// the message passing layer" with the telemetry a production serving stack
// expects: where did a message spend its cycles, which link is hot, what is
// the denial rate — live, from a running apiaryd.
//
// Everything here is observation only. The recorder never touches
// simulation state, so runs with telemetry enabled are bit-identical to
// runs without it (TestObsDifferential proves this).
package obs

import (
	"fmt"
	"sort"
	"strings"

	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// Entry is one retained flight-recorder span. For reply-class spans whose
// request was also sampled, Req points at the request span, which is what
// end-to-end RPC breakdowns (service time between request ejection and reply
// injection) are computed from.
type Entry struct {
	Span  *noc.Span
	Reply bool
	Req   *noc.Span // correlated request, nil if unknown
}

// corrKey identifies an outstanding sampled request: the requester tile and
// the RPC sequence number its reply will echo.
type corrKey struct {
	tile msg.TileID
	seq  uint32
}

// Recorder is the message flight recorder. It implements noc.SpanSampler:
// Sample picks 1-in-every packets per NI (by the NI's deterministic packet
// counter) plus every reply whose request was sampled; Complete files
// finished spans into a bounded ring and correlates replies with their
// requests via (requester tile, seq).
//
// Determinism contract (see noc.SpanSampler): Sample may run inside the
// tick phase and only reads — the pending table it consults is written
// exclusively by Complete, which the NoC calls during the commit phase in
// tile order. The ring contents are therefore identical across runs.
type Recorder struct {
	every   int
	ring    []Entry
	cap     int
	next    int
	full    bool
	total   uint64
	correl  uint64
	pending map[corrKey]*noc.Span
	pendQ   []corrKey // FIFO of live keys, bounds the pending table
	pendCap int
}

// DefaultSpanCap is the default ring capacity.
const DefaultSpanCap = 4096

// NewRecorder samples one in every packets (every <= 0 records nothing) and
// retains at most capacity completed spans.
func NewRecorder(every, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Recorder{
		every:   every,
		cap:     capacity,
		pending: make(map[corrKey]*noc.Span),
		pendCap: 1024,
	}
}

// Sample implements noc.SpanSampler. Requests (and any non-reply class) are
// sampled by the NI's packet counter; replies are sampled iff their request
// was, so every sampled RPC yields a correlatable pair.
func (r *Recorder) Sample(src msg.TileID, pktID uint64, m *msg.Message) bool {
	if r == nil || r.every <= 0 {
		return false
	}
	// Messages carrying a distributed-trace context are always sampled: a
	// fleet trace is stitched from per-board recorder entries, so every hop
	// of a traced request must produce a span. The check is read-only and
	// deterministic (the context is assigned by the originating proxy's own
	// counter), so it preserves the tick-phase contract.
	if m.Trace.Valid() {
		return true
	}
	if noc.ClassVC(m.Type) == noc.VCReply {
		_, ok := r.pending[corrKey{m.DstTile, m.Seq}]
		return ok
	}
	// NI packet IDs start at 1; anchoring the phase there means each NI's
	// first packet is sampled, so short runs still produce spans.
	return pktID%uint64(r.every) == 1 || r.every == 1
}

// Complete implements noc.SpanSampler: file a finished span, correlating
// replies and registering requests for future correlation. Runs only in the
// commit phase (main goroutine, tile order).
func (r *Recorder) Complete(sp *noc.Span) {
	if r == nil {
		return
	}
	r.total++
	ent := Entry{Span: sp}
	switch noc.ClassVC(sp.Type) {
	case noc.VCReply:
		ent.Reply = true
		k := corrKey{sp.Dst, sp.Seq}
		if req, ok := r.pending[k]; ok {
			ent.Req = req
			r.correl++
			delete(r.pending, k)
		}
	case noc.VCReq:
		k := corrKey{sp.Src, sp.Seq}
		if _, dup := r.pending[k]; !dup {
			r.evictPending()
			r.pending[k] = sp
			r.pendQ = append(r.pendQ, k)
		}
	}
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, ent)
		return
	}
	r.full = true
	r.ring[r.next] = ent
	r.next = (r.next + 1) % r.cap
}

// evictPending drops the oldest live pending request once the table is
// full. Keys already correlated (deleted from the map) are skipped lazily.
func (r *Recorder) evictPending() {
	for len(r.pending) >= r.pendCap && len(r.pendQ) > 0 {
		k := r.pendQ[0]
		r.pendQ = r.pendQ[1:]
		delete(r.pending, k)
	}
	// Compact the queue when it is dominated by stale keys.
	if len(r.pendQ) > 4*r.pendCap {
		live := r.pendQ[:0]
		for _, k := range r.pendQ {
			if _, ok := r.pending[k]; ok {
				live = append(live, k)
			}
		}
		r.pendQ = live
	}
}

// Total reports how many spans completed (including evicted ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Correlated reports how many reply spans were matched to their request.
func (r *Recorder) Correlated() uint64 {
	if r == nil {
		return 0
	}
	return r.correl
}

// Every reports the sampling period (0 = disabled).
func (r *Recorder) Every() int {
	if r == nil {
		return 0
	}
	return r.every
}

// Entries returns the retained spans oldest-first.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	if !r.full {
		return append([]Entry(nil), r.ring...)
	}
	out := make([]Entry, 0, r.cap)
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Breakdown decomposes a span's end-to-end latency into pipeline stages.
// Stage identities: NIQueue is source-NI queueing before injection; VCWait
// sums Grant-Arrive over hops (VC allocation wait, which includes the
// one-cycle link/buffer pipeline per hop); SwitchWait sums Depart-Grant
// (switch arbitration). The three cover the whole latency for a completed
// span, because the link traversal into hop i+1 is stamped at hop i's
// Depart cycle.
type Breakdown struct {
	Total      sim.Cycle
	NIQueue    sim.Cycle
	VCWait     sim.Cycle
	SwitchWait sim.Cycle
	Hops       int
	// SlowestHop is the hop with the largest Arrive→Depart residency, the
	// span's congestion point.
	SlowestHop     noc.SpanHop
	SlowestHopWait sim.Cycle
}

// SpanBreakdown computes the per-stage decomposition of sp.
func SpanBreakdown(sp *noc.Span) Breakdown {
	b := Breakdown{Total: sp.Latency(), NIQueue: sp.InjectWait(), Hops: len(sp.Hops)}
	for i := range sp.Hops {
		h := &sp.Hops[i]
		b.VCWait += h.Grant - h.Arrive
		b.SwitchWait += h.Depart - h.Grant
		if wait := h.Depart - h.Arrive; wait > b.SlowestHopWait {
			b.SlowestHopWait = wait
			b.SlowestHop = *h
		}
	}
	return b
}

// hopLink renders the slowest hop as the directed link it fed, e.g.
// "(2,1)->east".
func hopLink(h noc.SpanHop) string {
	return fmt.Sprintf("%s->%s", h.At, h.Out)
}

// Summary renders the flight recorder's critical-path view: sampling state,
// correlation counts, and the latency breakdown of the p50 and p99 spans —
// the "where did my message spend its cycles" answer.
func (r *Recorder) Summary() string {
	var b strings.Builder
	ents := r.Entries()
	fmt.Fprintf(&b, "flight recorder: %d spans (1-in-%d sampling), %d retained, %d replies correlated\n",
		r.Total(), r.Every(), len(ents), r.Correlated())
	if len(ents) == 0 {
		return b.String()
	}
	byLat := make([]*noc.Span, len(ents))
	for i, e := range ents {
		byLat[i] = e.Span
	}
	sort.Slice(byLat, func(i, j int) bool { return byLat[i].Latency() < byLat[j].Latency() })
	for _, q := range []struct {
		name string
		f    float64
	}{{"p50", 0.5}, {"p99", 0.99}} {
		sp := byLat[int(q.f*float64(len(byLat)-1))]
		bd := SpanBreakdown(sp)
		fmt.Fprintf(&b, "%s breakdown (%s %d->%d seq=%d): %dcy total = %dcy ni-queue + %dcy vc-wait + %dcy switch-wait over %d hops",
			q.name, sp.Type, sp.Src, sp.Dst, sp.Seq,
			bd.Total, bd.NIQueue, bd.VCWait, bd.SwitchWait, bd.Hops)
		if bd.Hops > 0 {
			fmt.Fprintf(&b, "; %dcy congestion on link %s", bd.SlowestHopWait, hopLink(bd.SlowestHop))
		}
		b.WriteByte('\n')
	}
	if r.Correlated() > 0 {
		// Service-time view over correlated RPC pairs.
		var svc []float64
		for _, e := range ents {
			if e.Req != nil {
				svc = append(svc, float64(e.Span.Queued-e.Req.Eject))
			}
		}
		if len(svc) > 0 {
			sort.Float64s(svc)
			fmt.Fprintf(&b, "service handling (reply queued - request ejected): p50=%.0fcy p99=%.0fcy over %d RPCs\n",
				svc[len(svc)/2], svc[int(0.99*float64(len(svc)-1))], len(svc))
		}
	}
	return b.String()
}
