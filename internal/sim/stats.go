package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. Increments are atomic
// and commute, so the final value is independent of update order.
type Counter struct {
	Name string
	n    atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// HistExactCap is the number of samples a Histogram keeps exactly before it
// collapses into log-linear buckets. Below the cap quantiles are exact;
// above it they are accurate to within histRelError. The cap is what keeps a
// week-long daemon run from growing a float64 slice forever.
const HistExactCap = 8192

// histSubBuckets is the log-linear resolution: each power-of-two range is
// split into this many equal-width buckets. A sample's bucket midpoint is
// within 1/(2*histSubBuckets)/0.5 ≈ 0.8% of the sample, so p50/p99 stay
// within 1% of exact after the collapse.
const histSubBuckets = 128

// Histogram records a distribution of sample values (typically latencies in
// cycles) and can report percentiles. The first HistExactCap samples are
// kept exactly — experiment scales stay in this regime, so their quantiles
// are bit-for-bit what they always were. Past the cap the samples collapse
// into log-linear buckets (128 per octave) and the histogram stops growing;
// Count, Mean, Min and Max remain exact, quantiles become approximate to
// <1%. Bucket counts are order-independent, so the collapse keeps results
// deterministic (the float sum remains the one order-sensitive reduction,
// exactly as before).
//
// Observe mutates state whose value depends on observation order, so a
// Histogram must only be observed in a deterministic order: from tickers
// (registration order) or from the commit phase.
type Histogram struct {
	Name    string
	samples []float64
	sorted  bool
	sum     float64
	min     float64
	max     float64

	n       uint64           // total samples ever observed
	buckets map[int32]uint64 // nil until the exact cap is exceeded
}

// bucketKey maps a positive sample to its log-linear bucket: the octave
// (binary exponent) selects the coarse range, the mantissa picks one of
// histSubBuckets equal-width sub-buckets inside it. Non-positive samples
// (unused by any current metric, but not forbidden) share a single
// underflow bucket.
func bucketKey(v float64) int32 {
	if v <= 0 {
		return math.MinInt32
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	sub := int32((frac - 0.5) * (2 * histSubBuckets))
	return int32(exp)*histSubBuckets + sub
}

// bucketMid is the representative value reported for a bucket: the midpoint
// of its [lo, hi) range.
func bucketMid(key int32) float64 {
	if key == math.MinInt32 {
		return 0
	}
	exp := key / histSubBuckets
	sub := key % histSubBuckets
	if sub < 0 { // Go truncates toward zero; normalize to floor semantics
		exp--
		sub += histSubBuckets
	}
	frac := 0.5 + (float64(sub)+0.5)/(2*histSubBuckets)
	return math.Ldexp(frac, int(exp))
}

// collapse moves the exact samples into buckets and frees the slice.
func (h *Histogram) collapse() {
	h.buckets = make(map[int32]uint64, len(h.samples))
	for _, v := range h.samples {
		h.buckets[bucketKey(v)]++
	}
	h.samples = nil
	h.sorted = false
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	if h.buckets != nil {
		h.buckets[bucketKey(v)]++
		return
	}
	h.samples = append(h.samples, v)
	h.sorted = false
	if len(h.samples) > HistExactCap {
		h.collapse()
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return int(h.n) }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 { return h.min }

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 { return h.max }

// Quantile reports the q-quantile (0 <= q <= 1) using nearest-rank: exact
// below HistExactCap samples, within histSubBuckets resolution (<1%) above.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	if h.buckets != nil {
		return h.bucketQuantile(q)
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	idx := int(q * float64(len(h.samples)))
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// bucketQuantile walks the buckets in value order to the nearest-rank
// sample's bucket and returns its midpoint, clamped to the exact min/max.
func (h *Histogram) bucketQuantile(q float64) float64 {
	keys := make([]int32, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := uint64(q * float64(h.n)) // 0-based index of the nearest-rank sample
	var cum uint64
	for _, k := range keys {
		cum += h.buckets[k]
		if cum > rank {
			v := bucketMid(k)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Median is Quantile(0.5).
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge folds all of o's samples into h. It is the aggregation primitive for
// fleet-level metrics federation: per-board histograms merged at an epoch
// barrier must agree regardless of board order, so Merge is commutative and
// associative up to the usual caveats — bucket counts and n/min/max are
// exactly order-independent; the float sum is the one order-sensitive
// reduction (callers that need bit-stable sums must merge in a fixed order,
// which the fleet aggregator does: board 0..N-1).
//
// Merge is collapse-aware: while both sides are exact and the combined
// sample count fits HistExactCap the result stays exact (quantiles
// bit-for-bit); otherwise the result collapses to log-linear buckets,
// exactly as Observe would past the cap. o is not modified.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	// Decide the regime for the merged result: exact only if both sides are
	// exact and the union fits the cap.
	if h.buckets == nil && o.buckets == nil && len(h.samples)+len(o.samples) <= HistExactCap {
		h.samples = append(h.samples, o.samples...)
		h.sorted = false
		return
	}
	if h.buckets == nil {
		h.collapse()
	}
	if o.buckets != nil {
		for k, c := range o.buckets {
			h.buckets[k] += c
		}
	} else {
		for _, v := range o.samples {
			h.buckets[bucketKey(v)]++
		}
	}
}

// Reset discards all samples and returns to the exact regime.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sum, h.min, h.max = 0, 0, 0
	h.n = 0
	h.buckets = nil
	h.sorted = false
}

// Stats is a named registry of counters and histograms. Components create
// their metrics through a shared Stats so that experiment harnesses can
// enumerate them.
type Stats struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	order    []string
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (s *Stats) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{Name: name}
	s.counters[name] = c
	s.order = append(s.order, "c:"+name)
	return c
}

// Histogram returns the histogram with the given name, creating it on first
// use.
func (s *Stats) Histogram(name string) *Histogram {
	if h, ok := s.hists[name]; ok {
		return h
	}
	h := &Histogram{Name: name}
	s.hists[name] = h
	s.order = append(s.order, "h:"+name)
	return h
}

// Counters returns the registered counters in creation order.
func (s *Stats) Counters() []*Counter {
	var out []*Counter
	for _, k := range s.order {
		if strings.HasPrefix(k, "c:") {
			out = append(out, s.counters[k[2:]])
		}
	}
	return out
}

// Histograms returns the registered histograms in creation order.
func (s *Stats) Histograms() []*Histogram {
	var out []*Histogram
	for _, k := range s.order {
		if strings.HasPrefix(k, "h:") {
			out = append(out, s.hists[k[2:]])
		}
	}
	return out
}

// String renders a compact human-readable dump, one metric per line.
func (s *Stats) String() string {
	var b strings.Builder
	for _, c := range s.Counters() {
		fmt.Fprintf(&b, "%-40s %12d\n", c.Name, c.Value())
	}
	for _, h := range s.Histograms() {
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-40s n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f\n",
			h.Name, h.Count(), h.Mean(), h.Median(), h.P99(), h.Max())
	}
	return b.String()
}
