package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"apiary/internal/load"
	"apiary/internal/sim"
)

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"apiary/internal/noc.(*Network).Tick":       "apiary/internal/noc",
		"apiary/internal/accel.(*Shell).Tick.func1": "apiary/internal/accel",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Iter).Next":        "internal/runtime/maps",
		"main.(*bench).traced":                      "main",
		"sort.Slice":                                "sort",
		"apiary/internal/cluster.(*Fleet).runEpoch": "apiary/internal/cluster",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestBucket(t *testing.T) {
	cases := []struct {
		stack       []string
		skipRuntime bool
		want        string
	}{
		// CPU self time: the leaf frame's layer.
		{[]string{"apiary/internal/noc.(*bandTicker).Tick", "apiary/internal/sim.(*Engine).tickAll"}, false, "noc"},
		// Map iteration and GC belong to the runtime, whoever called them.
		{[]string{"internal/runtime/maps.(*Iter).Next", "apiary/internal/netstack.(*Transport).Tick"}, false, "go_runtime"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, false, "go_runtime"},
		// A standard-library leaf is charged to the repository caller.
		{[]string{"sort.insertionSort", "sort.Slice", "apiary/internal/sim.(*Engine).Run"}, false, "sim"},
		// Allocations skip the runtime to reach the code that asked.
		{[]string{"runtime.makeslice", "apiary/internal/load.(*Generator).request"}, true, "load"},
		{[]string{"runtime.malg", "runtime.newproc1", "runtime.newproc"}, true, "go_runtime"},
		// Repository packages outside the layer list, and the benchmark itself.
		{[]string{"apiary/internal/energy.Model"}, false, "other"},
		{[]string{"main.median", "main.main"}, false, "other"},
		{[]string{"compress/flate.(*compressor).deflate"}, false, "other"},
		{nil, false, "other"},
	}
	for _, c := range cases {
		if got := bucket(c.stack, c.skipRuntime); got != c.want {
			t.Errorf("bucket(%v, skipRuntime=%v) = %q, want %q", c.stack, c.skipRuntime, got, c.want)
		}
	}
	for _, want := range []string{"sim", "noc", "monitor", "accel", "apps", "core", "memseg",
		"netstack", "netsim", "fabric", "cluster", "load", "obs", "trace", "go_runtime"} {
		found := false
		for _, l := range layers {
			found = found || l == want
		}
		if !found {
			t.Errorf("layer %q missing from the attribution list", want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb []byte

func (p pb) varint(num int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(num int, b []byte) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func TestParseCPUProfile(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "samples", "count", "apiary/internal/noc.(*Network).Commit",
		"apiary/internal/msg.Encode", "apiary/internal/sim.(*Engine).Step"} {
		prof = prof.bytes(6, []byte(s))
	}
	// Functions 1..3 name string-table entries 3..5.
	for id := uint64(1); id <= 3; id++ {
		prof = prof.bytes(5, pb{}.varint(1, id).varint(2, id+2))
	}
	// Location 10 holds msg.Encode inlined into noc.Commit (leaf first);
	// location 11 is Engine.Step.
	loc10 := pb{}.varint(1, 10).bytes(4, pb{}.varint(1, 2)).bytes(4, pb{}.varint(1, 1))
	loc11 := pb{}.varint(1, 11).bytes(4, pb{}.varint(1, 3))
	prof = prof.bytes(4, loc10).bytes(4, loc11)
	// One sample with packed location ids and values, one unpacked.
	packed := binary.AppendUvarint(binary.AppendUvarint(nil, 10), 11)
	vals := binary.AppendUvarint(binary.AppendUvarint(nil, 7), 7e7)
	prof = prof.bytes(2, pb{}.bytes(1, packed).bytes(2, vals))
	prof = prof.bytes(2, pb{}.varint(1, 11).varint(2, 3).varint(2, 3e7))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	got, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{stack: []string{"apiary/internal/msg.Encode", "apiary/internal/noc.(*Network).Commit",
			"apiary/internal/sim.(*Engine).Step"}, count: 7},
		{stack: []string{"apiary/internal/sim.(*Engine).Step"}, count: 3},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if _, err := parseCPUProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestFailedFrac(t *testing.T) {
	o := outcome{offered: 20, ok: 14, denied: 3, timeout: 2, shed: 1, scnCycles: 1_000_000}
	if got := o.failedFrac(); got != 0.3 {
		t.Errorf("failedFrac = %v, want 0.3 (refusals count as failures)", got)
	}
	if got := o.simMetrics()["ok_frac"]; got != 0.7 {
		t.Errorf("ok_frac = %v, want 0.7", got)
	}
	if got := o.goodput(); got != 14 {
		t.Errorf("goodput = %v rpMc, want 14", got)
	}
	if got := (outcome{}).failedFrac(); got != 0 {
		t.Errorf("failedFrac with nothing offered = %v, want 0", got)
	}
}

func arrivals(ats ...sim.Cycle) []load.Arrival {
	var out []load.Arrival
	for i, at := range ats {
		out = append(out, load.Arrival{Seq: uint32(i), At: at})
	}
	return out
}

func TestResolve(t *testing.T) {
	ok := load.OutcomeOK
	rec := &load.Recording{
		Arrivals: arrivals(10, 20, 30, 40),
		Completions: []load.Completion{
			{Seq: 1, Outcome: ok, At: 25}, {Seq: 0, Outcome: ok, At: 60},
			{Seq: 3, Outcome: load.OutcomeShed, At: 40}, {Seq: 2, Outcome: load.OutcomeTimeout, At: 90},
		},
	}
	lat, err := resolve(rec, [4]uint64{2, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lat) != "[5 50]" {
		t.Errorf("latencies %v, want [5 50] stamped from the scheduled arrival", lat)
	}

	bad := []struct {
		name string
		rec  load.Recording
		want [4]uint64
		msg  string
	}{
		{"unresolved", load.Recording{Arrivals: arrivals(1, 2),
			Completions: []load.Completion{{Seq: 0, Outcome: ok, At: 5}}},
			[4]uint64{1, 0, 0, 0}, "never resolved"},
		{"resolved twice", load.Recording{Arrivals: arrivals(1),
			Completions: []load.Completion{{Seq: 0, Outcome: ok, At: 5}, {Seq: 0, Outcome: ok, At: 6}}},
			[4]uint64{2, 0, 0, 0}, "no pending arrival"},
		{"unknown seq", load.Recording{Arrivals: arrivals(1),
			Completions: []load.Completion{{Seq: 9, Outcome: ok, At: 5}}},
			[4]uint64{1, 0, 0, 0}, "no pending arrival"},
		{"duplicate arrival", load.Recording{Arrivals: []load.Arrival{{Seq: 0, At: 1}, {Seq: 0, At: 2}}},
			[4]uint64{}, "recorded twice"},
		{"before arrival", load.Recording{Arrivals: arrivals(50),
			Completions: []load.Completion{{Seq: 0, Outcome: ok, At: 5}}},
			[4]uint64{1, 0, 0, 0}, "before arriving"},
		{"counter mismatch", load.Recording{Arrivals: arrivals(1),
			Completions: []load.Completion{{Seq: 0, Outcome: load.OutcomeDenied, At: 5}}},
			[4]uint64{1, 0, 0, 0}, "!= counters"},
	}
	for _, c := range bad {
		if _, err := resolve(&c.rec, c.want); err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.msg)
		}
	}
}

func TestPercentileSampleGuard(t *testing.T) {
	seq := func(n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		q        float64
		enough   int
		expected float64 // nearest rank at exactly enough samples
	}{
		{0.5, 20, 10},
		{0.99, 1000, 990},
		{0.999, 10000, 9990},
	} {
		if _, err := percentile(seq(c.enough-1), c.q); err == nil {
			t.Errorf("p%g accepted %d samples, fewer than ten beyond it", 100*c.q, c.enough-1)
		}
		got, err := percentile(seq(c.enough), c.q)
		if err != nil {
			t.Errorf("p%g refused %d samples: %v", 100*c.q, c.enough, err)
		} else if got != c.expected {
			t.Errorf("p%g of 1..%d = %v, want %v", 100*c.q, c.enough, got, c.expected)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestRunDeterministic boots a short single-board scenario twice, with and
// without span sampling, and checks both runs pass the outcome checks and
// agree exactly.
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	w := &workload{name: "test", scenario: func(seed uint64) string {
		return fmt.Sprintf(boardScn, "test", seed, 600_000, 18000)
	}}
	b := &bench{w: w, text: w.scenario(7)}
	for _, o := range []runOpts{{}, {spanEvery: spanEvery}} {
		in, _, err := b.boot(o, 1)
		if err != nil {
			t.Fatal(err)
		}
		in.runScenario()
		got, err := b.check(in, fmt.Sprintf("spanEvery=%d", o.spanEvery))
		if err != nil {
			t.Fatal(err)
		}
		if got.ok < 10000 || got.p999 < got.p99 || got.p99 < got.p50 {
			t.Errorf("implausible outcome %+v", got)
		}
		in.close()
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the benchmark
// prints: the same workloads and, per mode, the same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	for _, c := range []struct {
		mode  string
		json  []struct{ Name, Unit string }
		units map[string]string
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.units) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", c.mode, len(c.json), len(c.units))
		}
		for _, m := range c.json {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s in %s is reported with unit %q (reported: %v)", c.mode, m.Name, m.Unit, u, ok)
			}
		}
	}
}
