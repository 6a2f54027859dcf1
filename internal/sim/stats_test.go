package sim

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	s := NewStats()
	c := s.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if s.Counter("x") != c {
		t.Fatal("Counter with same name returned a different instance")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("Mean = %v, want 50.5", h.Mean())
	}
	if m := h.Median(); m < 50 || m > 51 {
		t.Fatalf("Median = %v, want ~50.5", m)
	}
	if p := h.P99(); p < 99 || p > 100 {
		t.Fatalf("P99 = %v, want ~99-100", p)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(7)
	if h.Quantile(0) != 7 || h.Quantile(1) != 7 || h.Quantile(0.99) != 7 {
		t.Fatal("single-sample quantiles should all be the sample")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	h := &Histogram{}
	h.Observe(10)
	_ = h.Median()
	h.Observe(1) // must re-sort
	if h.Quantile(0) != 1 {
		t.Fatalf("Quantile(0) = %v after late observe, want 1", h.Quantile(0))
	}
}

func TestHistogramReset(t *testing.T) {
	h := &Histogram{}
	h.Observe(3)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

// TestHistogramBounded proves the log-linear collapse keeps memory flat and
// quantiles within 1% of exact on a distribution with a heavy tail.
func TestHistogramBounded(t *testing.T) {
	h := &Histogram{}
	var exact []float64
	rng := NewRNG(42)
	const n = 200_000
	for i := 0; i < n; i++ {
		// Mixture: bulk around 50 cycles, 1% tail out to ~100k.
		v := float64(1 + rng.Intn(100))
		if rng.Intn(100) == 0 {
			v = float64(1000 + rng.Intn(100000))
		}
		h.Observe(v)
		exact = append(exact, v)
	}
	if h.samples != nil {
		t.Fatalf("histogram still holds %d exact samples past the cap", len(h.samples))
	}
	if len(h.buckets) > 64*histSubBuckets {
		t.Fatalf("bucket count %d not bounded", len(h.buckets))
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(n))]
		got := h.Quantile(q)
		if diff := math.Abs(got-want) / want; diff > 0.01 {
			t.Errorf("Quantile(%v) = %v, exact %v (%.2f%% off)", q, got, want, diff*100)
		}
	}
	if h.Min() != exact[0] || h.Max() != exact[n-1] {
		t.Fatalf("min/max drifted: %v/%v", h.Min(), h.Max())
	}
}

// TestHistogramOrderIndependentAfterCollapse: bucket counts are a multiset
// property, so quantiles after the collapse cannot depend on observation
// order.
func TestHistogramOrderIndependentAfterCollapse(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	const n = 3 * HistExactCap
	for i := 0; i < n; i++ {
		a.Observe(float64(1 + i%977))
	}
	for i := n - 1; i >= 0; i-- {
		b.Observe(float64(1 + i%977))
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("Quantile(%v): %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestHistogramResetAfterCollapse(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < HistExactCap+10; i++ {
		h.Observe(float64(i + 1))
	}
	if h.buckets == nil {
		t.Fatal("expected collapse")
	}
	h.Reset()
	if h.Count() != 0 || h.buckets != nil {
		t.Fatal("Reset did not return to the exact regime")
	}
	h.Observe(7)
	if h.Quantile(0.5) != 7 {
		t.Fatal("exact regime broken after Reset")
	}
}

func TestStatsString(t *testing.T) {
	s := NewStats()
	s.Counter("alpha").Add(3)
	s.Histogram("beta").Observe(2)
	out := s.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("String() missing metrics:\n%s", out)
	}
}

func TestStatsEnumerationOrder(t *testing.T) {
	s := NewStats()
	s.Counter("b")
	s.Counter("a")
	s.Histogram("z")
	cs := s.Counters()
	if len(cs) != 2 || cs[0].Name != "b" || cs[1].Name != "a" {
		t.Fatalf("counter order wrong: %v", cs)
	}
	hs := s.Histograms()
	if len(hs) != 1 || hs[0].Name != "z" {
		t.Fatalf("histogram enumeration wrong")
	}
}

// Counters are atomic: concurrent Inc from several goroutines must not lose
// updates (run with -race to check the implementation).
func TestCounterTickPhaseSafe(t *testing.T) {
	c := NewStats().Counter("test.shared")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 400 {
		t.Fatalf("shared counter = %d, want 400", c.Value())
	}
}
