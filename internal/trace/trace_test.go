package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"apiary/internal/msg"
)

func ev(tile msg.TileID, v Verdict, seq uint32) Event {
	return Event{Cycle: 10, Tile: tile, Verdict: v, Type: msg.TRequest, Seq: seq}
}

func TestRecordAndRetrieve(t *testing.T) {
	tr := New(10)
	tr.Record(ev(1, Forwarded, 1))
	tr.Record(ev(2, DeniedNoCap, 2))
	if tr.Total() != 2 {
		t.Fatalf("Total = %d", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(3)
	for i := uint32(1); i <= 5; i++ {
		tr.Record(ev(1, Forwarded, i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d, want 3", len(evs))
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("eviction order wrong: %+v", evs)
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(ev(1, Forwarded, 1)) // must not panic
	if tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should discard")
	}
}

func TestFilters(t *testing.T) {
	tr := New(16)
	tr.Record(ev(1, Forwarded, 1))
	tr.Record(ev(2, DeniedNoCap, 2))
	tr.Record(ev(1, RateLimited, 3))
	if got := tr.ByTile(1); len(got) != 2 {
		t.Fatalf("ByTile(1) = %d events", len(got))
	}
	den := tr.Denials()
	if len(den) != 2 || den[0].Verdict != DeniedNoCap || den[1].Verdict != RateLimited {
		t.Fatalf("Denials = %+v", den)
	}
}

func TestSummary(t *testing.T) {
	tr := New(16)
	tr.Record(ev(1, Forwarded, 1))
	tr.Record(ev(1, DeniedFailStop, 2))
	s := tr.Summary()
	if !strings.Contains(s, "forwarded") || !strings.Contains(s, "denied-failstop") {
		t.Fatalf("summary:\n%s", s)
	}
}

func TestExportChrome(t *testing.T) {
	tr := New(4)
	tr.Record(ev(7, Forwarded, 42))
	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf, 250); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(out) != 1 || out[0]["pid"].(float64) != 7 {
		t.Fatalf("chrome export = %v", out)
	}
}

func TestMatrix(t *testing.T) {
	tr := New(32)
	tr.Record(Event{Tile: 1, Dir: Egress, Verdict: Forwarded, Peer: 2, Bytes: 100})
	tr.Record(Event{Tile: 1, Dir: Egress, Verdict: Forwarded, Peer: 2, Bytes: 50})
	tr.Record(Event{Tile: 2, Dir: Egress, Verdict: Forwarded, Peer: 1, Bytes: 7})
	tr.Record(Event{Tile: 3, Dir: Egress, Verdict: DeniedNoCap, Peer: 2, Bytes: 99}) // not counted
	tr.Record(Event{Tile: 2, Dir: Ingress, Verdict: Forwarded, Peer: 1, Bytes: 99})  // not counted
	m := tr.Matrix()
	if m[Edge{1, 2}] != 150 || m[Edge{2, 1}] != 7 {
		t.Fatalf("matrix = %v", m)
	}
	if len(m) != 2 {
		t.Fatalf("matrix has %d edges, want 2", len(m))
	}
	s := tr.MatrixString()
	if !strings.Contains(s, "150") || !strings.Contains(s, "1 -> 2") {
		t.Fatalf("matrix render:\n%s", s)
	}
	// Largest flow first.
	if strings.Index(s, "150") > strings.Index(s, "7\n") {
		t.Fatalf("matrix not sorted:\n%s", s)
	}
}

func TestVerdictStrings(t *testing.T) {
	for v := Forwarded; v <= Faulted; v++ {
		if v.String() == "" {
			t.Fatal("empty verdict name")
		}
	}
	if Verdict(99).String() == "" || Ingress.String() != "ingress" || Egress.String() != "egress" {
		t.Fatal("stringer problems")
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	tr := New(0)
	tr.Record(ev(1, Forwarded, 1))
	if len(tr.Events()) != 1 {
		t.Fatal("zero-capacity tracer should clamp to 1")
	}
}

// TestExportChromeGolden pins the exact Chrome trace-event JSON for a fixed
// input, so format drift (field renames, ts scaling, arg changes) is caught
// as a diff rather than discovered inside Perfetto.
func TestExportChromeGolden(t *testing.T) {
	tr := New(4)
	tr.Record(Event{Cycle: 500, Tile: 3, Dir: Egress, Verdict: Forwarded,
		Type: msg.TRequest, Seq: 9, DstSvc: 16, Peer: 5, Bytes: 128})
	tr.Record(Event{Cycle: 750, Tile: 5, Dir: Ingress, Verdict: DeniedNoCap,
		Type: msg.TRequest, Seq: 9, DstSvc: 16, Peer: 3, Bytes: 128})
	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf, 250); err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"req forwarded","ph":"i","ts":2,"pid":3,"tid":0,"args":{"bytes":128,"peer":5,"seq":9,"svc":16}},` +
		`{"name":"req denied-nocap","ph":"i","ts":3,"pid":5,"tid":1,"args":{"bytes":128,"peer":3,"seq":9,"svc":16}}]` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("chrome export drifted:\ngot:  %swant: %s", got, want)
	}
}

// TestMatrixStringGolden pins the exact table rendering: largest flow first,
// ties broken by (src, dst).
func TestMatrixStringGolden(t *testing.T) {
	tr := New(16)
	tr.Record(Event{Tile: 1, Dir: Egress, Verdict: Forwarded, Peer: 2, Bytes: 100})
	tr.Record(Event{Tile: 4, Dir: Egress, Verdict: Forwarded, Peer: 0, Bytes: 25})
	tr.Record(Event{Tile: 2, Dir: Egress, Verdict: Forwarded, Peer: 1, Bytes: 25})
	want := "src -> dst        bytes\n" +
		"  1 -> 2             100\n" +
		"  2 -> 1              25\n" +
		"  4 -> 0              25\n"
	if got := tr.MatrixString(); got != want {
		t.Fatalf("matrix render drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
