// Package trace implements Apiary's message-level tracing and debugging
// support (paper §3 "Programmability": "debugging and tracing support at
// the message passing layer"). Monitors emit one event per message decision
// (forwarded, denied, dropped); the tracer keeps them in a bounded ring
// buffer and can render summaries, filter by tile, and export a Chrome
// trace-event JSON for visual inspection.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"apiary/internal/msg"
	"apiary/internal/sim"
)

// Verdict records what the monitor did with a message.
type Verdict uint8

// Verdicts.
const (
	Forwarded Verdict = iota
	DeniedNoCap
	DeniedRevoked
	DeniedRights
	DeniedNoService
	DeniedFailStop
	RateLimited
	Faulted // fault event, not a message
)

func (v Verdict) String() string {
	names := [...]string{
		"forwarded", "denied-nocap", "denied-revoked", "denied-rights",
		"denied-noservice", "denied-failstop", "rate-limited", "faulted",
	}
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Event is one traced monitor decision.
type Event struct {
	Cycle   sim.Cycle
	Tile    msg.TileID
	Dir     Dir
	Verdict Verdict
	Type    msg.Type
	Seq     uint32
	DstSvc  msg.ServiceID
	Peer    msg.TileID // the other end (dst on egress, src on ingress)
	Bytes   int
}

// Dir is the message direction relative to the monitored tile.
type Dir uint8

// Directions.
const (
	Egress Dir = iota
	Ingress
)

func (d Dir) String() string {
	if d == Egress {
		return "egress"
	}
	return "ingress"
}

// Tracer is a bounded ring buffer of events. A nil *Tracer is valid and
// discards everything, so monitors can trace unconditionally. Monitors
// record in simulation order: a cycle's tick-phase egress events land ahead
// of its commit-phase ingress events.
type Tracer struct {
	cap    int
	events []Event
	next   int
	full   bool
	total  uint64
}

// New returns a tracer holding at most capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Tracer{cap: capacity, events: make([]Event, 0, capacity)}
}

// Record appends an event, evicting the oldest when full.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.total++
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.full = true
	t.events[t.next] = e
	t.next = (t.next + 1) % t.cap
}

// Total reports how many events were ever recorded (including evicted).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.full {
		return append([]Event(nil), t.events...)
	}
	out := make([]Event, 0, t.cap)
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Filter returns retained events satisfying keep, oldest-first.
func (t *Tracer) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range t.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// ByTile returns retained events observed at the given tile.
func (t *Tracer) ByTile(tile msg.TileID) []Event {
	return t.Filter(func(e Event) bool { return e.Tile == tile })
}

// Denials returns retained non-forwarded message events — the first thing a
// developer asks for when a pipeline stalls.
func (t *Tracer) Denials() []Event {
	return t.Filter(func(e Event) bool { return e.Verdict != Forwarded })
}

// Summary renders counts per verdict.
func (t *Tracer) Summary() string {
	counts := map[Verdict]int{}
	for _, e := range t.Events() {
		counts[e.Verdict]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events recorded, %d retained\n", t.Total(), len(t.Events()))
	for v := Forwarded; v <= Faulted; v++ {
		if counts[v] > 0 {
			fmt.Fprintf(&b, "  %-18s %d\n", v, counts[v])
		}
	}
	return b.String()
}

// Edge is one (source tile -> destination tile) entry of the communication
// matrix.
type Edge struct {
	Src, Dst msg.TileID
}

// Matrix aggregates retained *egress* events into a communication matrix:
// bytes forwarded per (src tile, dst tile) pair. This is the first artifact
// a developer wants when asking "who talks to whom, and how much" — the
// message-layer observability the paper's Programmability goal calls for.
func (t *Tracer) Matrix() map[Edge]uint64 {
	m := make(map[Edge]uint64)
	for _, e := range t.Events() {
		if e.Dir != Egress || e.Verdict != Forwarded {
			continue
		}
		m[Edge{Src: e.Tile, Dst: e.Peer}] += uint64(e.Bytes)
	}
	return m
}

// MatrixString renders the communication matrix as an aligned table,
// largest flows first.
func (t *Tracer) MatrixString() string {
	m := t.Matrix()
	type row struct {
		e Edge
		b uint64
	}
	rows := make([]row, 0, len(m))
	for e, b := range m {
		rows = append(rows, row{e, b})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].b != rows[j].b {
			return rows[i].b > rows[j].b
		}
		if rows[i].e.Src != rows[j].e.Src {
			return rows[i].e.Src < rows[j].e.Src
		}
		return rows[i].e.Dst < rows[j].e.Dst
	})
	var b strings.Builder
	b.WriteString("src -> dst        bytes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%3d -> %-3d  %12d\n", r.e.Src, r.e.Dst, r.b)
	}
	return b.String()
}

// chromeEvent is the Chrome trace-event JSON schema (instant events).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// ExportChrome writes the retained events as a Chrome trace (load in
// chrome://tracing or Perfetto). cyclesPerUs converts cycles to wall time.
func (t *Tracer) ExportChrome(w io.Writer, cyclesPerUs float64) error {
	if cyclesPerUs <= 0 {
		cyclesPerUs = 250
	}
	evs := t.Events()
	out := make([]chromeEvent, 0, len(evs))
	for _, e := range evs {
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("%s %s", e.Type, e.Verdict),
			Ph:   "i",
			Ts:   float64(e.Cycle) / cyclesPerUs,
			Pid:  int(e.Tile),
			Tid:  int(e.Dir),
			Args: map[string]any{
				"seq":   e.Seq,
				"svc":   e.DstSvc,
				"peer":  e.Peer,
				"bytes": e.Bytes,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
