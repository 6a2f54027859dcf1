package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// obsSnap captures everything externally observable about a run — counters,
// histogram stats, delivery order — plus the full flight-recorder contents
// rendered to strings. Differential runs compare these for deep equality.
type obsSnap struct {
	Now      sim.Cycle
	Counters map[string]uint64
	Hist     map[string][6]float64
	Delivery []string
	Spans    []string
	Total    uint64
	Correl   uint64
}

func dumpSpan(e Entry) string {
	sp := e.Span
	var b strings.Builder
	kind := "req"
	if e.Reply {
		kind = "reply"
	}
	fmt.Fprintf(&b, "%s %d->%d seq=%d vc=%d q=%d e=%d", kind, sp.Src, sp.Dst, sp.Seq, sp.VC, sp.Queued, sp.Eject)
	for _, h := range sp.Hops {
		fmt.Fprintf(&b, " [%s %s->%s a=%d g=%d d=%d]", h.At, h.In, h.Out, h.Arrive, h.Grant, h.Depart)
	}
	if e.Req != nil {
		fmt.Fprintf(&b, " corr(q=%d,e=%d)", e.Req.Queued, e.Req.Eject)
	}
	return b.String()
}

// runObsTraffic drives request/reply RPC traffic over a 4x4 mesh with the
// flight recorder installed (every <= 0 disables it) and snapshots the
// result. Every TRequest delivered is answered with a TReply echoing Seq, so
// reply correlation is exercised end to end.
func runObsTraffic(t *testing.T, every int) (obsSnap, *Recorder) {
	t.Helper()
	e := sim.NewEngine(11)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 4, H: 4}})
	var rec *Recorder
	if every > 0 {
		rec = NewRecorder(every, 0)
		n.SetSpanSampler(rec)
	}

	snap := obsSnap{Counters: make(map[string]uint64), Hist: make(map[string][6]float64)}
	tiles := n.Dims().Tiles()
	for i := 0; i < tiles; i++ {
		tile := msg.TileID(i)
		n.NI(tile).SetDeliver(func(m *msg.Message, lat sim.Cycle) {
			snap.Delivery = append(snap.Delivery,
				fmt.Sprintf("%d<-%d %s seq=%d lat=%d", tile, m.SrcTile, m.Type, m.Seq, lat))
			if m.Type == msg.TRequest {
				if err := n.NI(tile).Send(m.Reply(msg.TReply, nil)); err != nil {
					t.Errorf("reply send failed: %v", err)
				}
			}
		})
	}

	rng := sim.NewRNG(99)
	var seq uint32
	const waves = 40
	for w := 0; w < waves; w++ {
		e.Schedule(sim.Cycle(1+5*w), func(now sim.Cycle) {
			for k := 0; k < 8; k++ {
				src := msg.TileID(rng.Intn(tiles))
				m := &msg.Message{
					Type:    msg.TRequest,
					SrcTile: src,
					DstTile: msg.TileID(rng.Intn(tiles)),
					Seq:     seq,
					Payload: make([]byte, rng.Intn(64)),
				}
				seq++
				if err := n.NI(src).Send(m); err != nil {
					t.Errorf("send failed: %v", err)
				}
			}
		})
	}

	e.Run(sim.Cycle(1 + 5*waves))
	if !e.RunUntil(n.Quiescent, 100000) {
		t.Fatalf("mesh did not quiesce (every=%d)", every)
	}
	if e.Now() < 2000 {
		e.Run(2000 - e.Now())
	}

	snap.Now = e.Now()
	for _, c := range st.Counters() {
		snap.Counters[c.Name] = c.Value()
	}
	for _, h := range st.Histograms() {
		snap.Hist[h.Name] = [6]float64{
			float64(h.Count()), h.Mean(), h.Min(), h.Max(), h.Quantile(0.5), h.Quantile(0.99),
		}
	}
	if rec != nil {
		snap.Total, snap.Correl = rec.Total(), rec.Correlated()
		for _, ent := range rec.Entries() {
			snap.Spans = append(snap.Spans, dumpSpan(ent))
		}
	}
	return snap, rec
}

// TestObsDifferential is the tentpole's proof obligation: telemetry is pure
// observation, so counters, latency distributions and delivery order are
// bit-identical with the recorder off, sampling 1-in-64, and sampling every
// packet — and, for each sampling rate, identical across two runs,
// including the recorder contents themselves.
func TestObsDifferential(t *testing.T) {
	base, _ := runObsTraffic(t, 0)
	if len(base.Delivery) == 0 {
		t.Fatal("baseline delivered nothing; differential proves nothing")
	}
	spanDumps := map[int][]string{}
	for i, every := range []int{0, 64, 64, 1, 1} {
		got, _ := runObsTraffic(t, every)
		label := fmt.Sprintf("run %d every=%d", i, every)
		if got.Now != base.Now {
			t.Errorf("%s: Now=%d want %d", label, got.Now, base.Now)
		}
		if !reflect.DeepEqual(got.Counters, base.Counters) {
			t.Errorf("%s: counters diverge:\n%v\nvs\n%v", label, got.Counters, base.Counters)
		}
		if !reflect.DeepEqual(got.Hist, base.Hist) {
			t.Errorf("%s: histograms diverge", label)
		}
		if !reflect.DeepEqual(got.Delivery, base.Delivery) {
			t.Errorf("%s: delivery order diverges", label)
		}
		if every > 0 {
			if got.Total == 0 {
				t.Errorf("%s: recorder saw no spans", label)
			}
			if got.Correl == 0 {
				t.Errorf("%s: no replies correlated", label)
			}
			if prev, ok := spanDumps[every]; ok {
				if !reflect.DeepEqual(got.Spans, prev) {
					t.Errorf("%s: span contents diverge between runs", label)
				}
			} else {
				spanDumps[every] = got.Spans
			}
		}
	}
}

// TestSpanShape checks the per-hop timing invariants on real spans: XY
// routing visits exactly manhattan+1 routers, stage cycles are non-negative
// and ordered, and the stage decomposition never exceeds the total.
func TestSpanShape(t *testing.T) {
	_, rec := runObsTraffic(t, 1)
	ents := rec.Entries()
	if len(ents) == 0 {
		t.Fatal("no spans")
	}
	for _, e := range ents {
		sp := e.Span
		dx := int(sp.Dst)%4 - int(sp.Src)%4
		dy := int(sp.Dst)/4 - int(sp.Src)/4
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if want := dx + dy + 1; len(sp.Hops) != want {
			t.Fatalf("span %d->%d: %d hops, want %d", sp.Src, sp.Dst, len(sp.Hops), want)
		}
		for i, h := range sp.Hops {
			if h.Grant < h.Arrive || h.Depart < h.Grant {
				t.Fatalf("hop %d not ordered: a=%d g=%d d=%d", i, h.Arrive, h.Grant, h.Depart)
			}
			if i > 0 && h.Arrive != sp.Hops[i-1].Depart {
				t.Fatalf("hop %d arrive %d != previous depart %d", i, h.Arrive, sp.Hops[i-1].Depart)
			}
		}
		bd := SpanBreakdown(sp)
		if sum := bd.NIQueue + bd.VCWait + bd.SwitchWait; sum > bd.Total {
			t.Fatalf("breakdown %d+%d+%d exceeds total %d", bd.NIQueue, bd.VCWait, bd.SwitchWait, bd.Total)
		}
		if e.Req != nil && sp.Queued < e.Req.Eject {
			t.Fatalf("reply queued at %d before request ejected at %d", sp.Queued, e.Req.Eject)
		}
	}
}

func TestRecorderSamplingRate(t *testing.T) {
	snap, rec := runObsTraffic(t, 64)
	sent := snap.Counters["noc.msgs_sent"]
	// 1-in-64 of requests plus their correlated replies.
	if rec.Total() > sent/8 {
		t.Fatalf("sampled %d of %d sends — sampling not sparse", rec.Total(), sent)
	}
	if rec.Correlated() == 0 {
		t.Fatal("no correlated replies at 1-in-64")
	}
}

func TestRecorderRingBounded(t *testing.T) {
	rec := NewRecorder(1, 8)
	for i := 0; i < 100; i++ {
		rec.Complete(&noc.Span{Src: 1, Dst: 2, Type: msg.TCtlPing, Seq: uint32(i)})
	}
	ents := rec.Entries()
	if len(ents) != 8 {
		t.Fatalf("ring holds %d, want 8", len(ents))
	}
	if ents[0].Span.Seq != 92 || ents[7].Span.Seq != 99 {
		t.Fatalf("ring not oldest-first: %d..%d", ents[0].Span.Seq, ents[7].Span.Seq)
	}
	if rec.Total() != 100 {
		t.Fatalf("Total = %d", rec.Total())
	}
}

func TestRecorderPendingBounded(t *testing.T) {
	rec := NewRecorder(1, 16)
	for i := 0; i < 10_000; i++ {
		rec.Complete(&noc.Span{Src: msg.TileID(i % 16), Dst: 1, Type: msg.TRequest, Seq: uint32(i)})
	}
	if len(rec.pending) > rec.pendCap {
		t.Fatalf("pending table grew to %d (cap %d)", len(rec.pending), rec.pendCap)
	}
	if len(rec.pendQ) > 4*rec.pendCap+1 {
		t.Fatalf("pending queue grew to %d", len(rec.pendQ))
	}
}

func TestSummary(t *testing.T) {
	_, rec := runObsTraffic(t, 4)
	s := rec.Summary()
	for _, want := range []string{"flight recorder:", "p50 breakdown", "p99 breakdown", "congestion on link", "service handling"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestExportChromeSpans(t *testing.T) {
	_, rec := runObsTraffic(t, 4)
	var buf bytes.Buffer
	if err := ExportChromeSpans(&buf, rec.Entries(), 1); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events exported")
	}
	var sawHop, sawService bool
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event ph = %v, want X", ev["ph"])
		}
		for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		if ev["dur"].(float64) < 0 {
			t.Fatalf("negative duration: %v", ev)
		}
		name := ev["name"].(string)
		if strings.HasPrefix(name, "hop ") {
			sawHop = true
		}
		if args, ok := ev["args"].(map[string]any); ok {
			if _, ok := args["service_cy"]; ok {
				sawService = true
			}
		}
	}
	if !sawHop {
		t.Fatal("no per-hop slices exported")
	}
	if !sawService {
		t.Fatal("no correlated reply carried service_cy")
	}
}

// runWindowed drives traffic with a Windows sampler attached.
func runWindowed(t *testing.T, keep int) (*Windows, *noc.Network, *sim.Stats, sim.Cycle) {
	t.Helper()
	e := sim.NewEngine(5)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 4, H: 4}})
	w := NewWindows(e, n, st, WindowConfig{Every: 100, Keep: keep})
	tiles := n.Dims().Tiles()
	for i := 0; i < tiles; i++ {
		n.NI(msg.TileID(i)).SetDeliver(func(m *msg.Message, lat sim.Cycle) {})
	}
	rng := sim.NewRNG(5)
	for wv := 0; wv < 30; wv++ {
		e.Schedule(sim.Cycle(1+20*wv), func(now sim.Cycle) {
			for k := 0; k < 6; k++ {
				src := msg.TileID(rng.Intn(tiles))
				m := &msg.Message{Type: msg.TRequest, SrcTile: src,
					DstTile: msg.TileID(rng.Intn(tiles)), Payload: make([]byte, 32)}
				if err := n.NI(src).Send(m); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
	}
	e.Run(1000)
	return w, n, st, e.Now()
}

func TestWindows(t *testing.T) {
	w, _, st, _ := runWindowed(t, 0)
	snaps := w.Snapshots()
	if len(snaps) != 10 {
		t.Fatalf("got %d snapshots over 1000 cycles at every=100, want 10", len(snaps))
	}
	var sent uint64
	for i, s := range snaps {
		if s.Cycle != sim.Cycle(100*(i+1)) {
			t.Fatalf("snapshot %d at cycle %d", i, s.Cycle)
		}
		sent += s.Sent
	}
	if total := st.Counter("noc.msgs_sent").Value(); sent != total {
		t.Fatalf("window deltas sum to %d, counter says %d", sent, total)
	}
	if got := w.Latest().Cycle; got != 1000 {
		t.Fatalf("Latest at cycle %d, want 1000", got)
	}
	busy := false
	for _, s := range snaps {
		if s.TilesBusy > 0 || len(s.Links) > 0 {
			busy = true
		}
		if s.Tiles != 16 {
			t.Fatalf("Tiles = %d", s.Tiles)
		}
	}
	if !busy {
		t.Fatal("no window ever saw activity")
	}
}

func TestWindowsRingBounded(t *testing.T) {
	w, _, _, _ := runWindowed(t, 4)
	snaps := w.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snaps))
	}
	if snaps[0].Cycle != 700 || snaps[3].Cycle != 1000 {
		t.Fatalf("ring kept cycles %d..%d, want 700..1000", snaps[0].Cycle, snaps[3].Cycle)
	}
}

func TestWindowsDisabled(t *testing.T) {
	var w *Windows
	if w.Latest() != nil || w.Snapshots() != nil || w.Every() != 0 {
		t.Fatal("nil Windows must be inert")
	}
	e := sim.NewEngine(1)
	st := sim.NewStats()
	n := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 2, H: 2}})
	if NewWindows(e, n, st, WindowConfig{Every: 0}) != nil {
		t.Fatal("Every=0 should disable sampling")
	}
}

// promLine matches one Prometheus text-format sample line:
// name{labels} value — a lenient but structural check.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [-+]?([0-9]*\.)?[0-9]+([eE][-+]?[0-9]+)?$`)

func TestWriteProm(t *testing.T) {
	w, n, st, now := runWindowed(t, 0)
	rec := NewRecorder(4, 0)
	_ = n
	var buf bytes.Buffer
	WriteProm(&buf, now, 200, st, w, rec, []ServiceHealth{
		{Group: 30, Svc: 20, Tile: 4, Health: 2, State: "quarantined"},
		{Group: 30, Svc: 21, Tile: 5, Health: 0, State: "up", Primary: true},
	})
	out := buf.String()
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid Prometheus line: %q", line)
		}
		seen[strings.Fields(line)[0]] = true
	}
	for _, want := range []string{
		"apiary_cycle", "apiary_clock_mhz",
		"apiary_noc_msgs_sent_total", "apiary_noc_flits_routed_total",
		"apiary_window_cycles", "apiary_window_tiles_busy",
		"apiary_spans_recorded_total",
	} {
		if !seen[want] {
			t.Fatalf("missing metric %s in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `apiary_noc_msg_latency_cycles{quantile="0.99"}`) {
		t.Fatalf("missing latency summary quantiles:\n%s", out)
	}
	if !strings.Contains(out, `apiary_window_vc_occupancy{vc="0"}`) {
		t.Fatalf("missing vc occupancy gauge:\n%s", out)
	}
}

func TestHeatmap(t *testing.T) {
	w, n, _, _ := runWindowed(t, 0)
	var buf bytes.Buffer
	WriteHeatmap(&buf, n, w.Latest(), nil, nil)
	out := buf.String()
	if !strings.Contains(out, "NoC heatmap: window of 100 cycles") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "scale:") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// Cumulative view over the whole run must show a hottest link.
	buf.Reset()
	WriteHeatmap(&buf, n, nil, nil, nil)
	out = buf.String()
	if !strings.Contains(out, "cumulative") || !strings.Contains(out, "hottest link:") {
		t.Fatalf("cumulative heatmap incomplete:\n%s", out)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") {
			rows++
		}
	}
	if rows != 4 {
		t.Fatalf("grid has %d rows, want 4", rows)
	}

	buf.Reset()
	if err := WriteHeatmapJSON(&buf, n, w.Latest(), nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["w"].(float64) != 4 || doc["h"].(float64) != 4 {
		t.Fatalf("bad dims in JSON heatmap: %v", doc)
	}
	if len(doc["tile_flits"].([]any)) != 16 {
		t.Fatal("tile_flits not W*H")
	}
}
