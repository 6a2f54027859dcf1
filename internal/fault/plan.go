// Package fault implements Apiary's deterministic chaos engine: seed-driven
// fault-injection plans (accelerator hangs, wild writes, babble, link
// stalls/flips, stuck VCs, spurious monitor trips) compiled into engine
// events so an injected run stays bit-exact run to run. The containment machinery it exercises — monitor watchdogs,
// fail-stop quarantine, region-reload recovery — lives in monitor/ and
// core/; this package only decides *when* and *where* things break.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

// Fault kinds. Accelerator-level kinds go through a Target (the kernel or a
// test harness); link-level kinds act on the NoC directly.
const (
	KindNone      Kind = iota
	KindHang           // accelerator stops consuming input for Dur cycles
	KindWildWrite      // Count forged memory writes with a dangling cap ref
	KindBabble         // junk requests to Svc every cycle for Dur cycles
	KindLinkStall      // output link (Tile, Port) forwards nothing for Dur cycles
	KindLinkFlip       // corrupt the next message crossing (Tile, Port)
	KindStuckVC        // output VC (Tile, Port, VC) grants nothing for Dur cycles
	KindFalsePos       // tile's monitor raises a spurious fault
	KindMigrate        // live-migrate the app owning Tile to a new region
)

var kindNames = map[Kind]string{
	KindHang:      "hang",
	KindWildWrite: "wildwrite",
	KindBabble:    "babble",
	KindLinkStall: "stall",
	KindLinkFlip:  "flip",
	KindStuckVC:   "stuckvc",
	KindFalsePos:  "falsepos",
	KindMigrate:   "migrate",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses a kind name.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return k, true
		}
	}
	return KindNone, false
}

// Event is one scheduled fault activation.
type Event struct {
	Kind Kind
	// At is the activation cycle (clamped to now+1 when armed late).
	At sim.Cycle
	// Tile is the faulted tile (all kinds).
	Tile msg.TileID
	// Port selects the router output for link-level kinds.
	Port noc.Port
	// VC selects the virtual channel for KindStuckVC.
	VC int
	// Dur is how long the fault condition holds (hang/babble/stall/stuckvc).
	Dur sim.Cycle
	// Count is the number of wild writes per activation (default 1).
	Count int
	// Svc is the babble destination service (default SvcInvalid, which the
	// monitor denies — the babbling tile trips the protocol detector).
	Svc msg.ServiceID
}

// Rate is a probabilistic fault source: the event template fires with
// geometric inter-arrival times of the given mean, drawn from the plan's
// seeded RNG. Expansion happens at schedule time on the main goroutine, so
// probabilistic plans are exactly as deterministic as scheduled ones.
type Rate struct {
	Event
	// MeanEvery is the mean cycles between activations (must be >= 1).
	MeanEvery sim.Cycle
}

// Plan is a complete chaos schedule.
type Plan struct {
	Seed   uint64
	Events []Event
	Rates  []Rate
}

// Validate checks plan fields against a mesh of the given dimensions.
func (p *Plan) Validate(dims noc.Dims) error {
	check := func(ev Event, probabilistic bool) error {
		if _, ok := kindNames[ev.Kind]; !ok {
			return fmt.Errorf("fault: unknown kind %d", ev.Kind)
		}
		if int(ev.Tile) >= dims.Tiles() {
			return fmt.Errorf("fault: %s tile %d outside %dx%d mesh",
				ev.Kind, ev.Tile, dims.W, dims.H)
		}
		switch ev.Kind {
		case KindLinkStall, KindLinkFlip, KindStuckVC:
			if ev.Port < 0 || ev.Port >= noc.NumPorts {
				return fmt.Errorf("fault: %s port %d out of range", ev.Kind, ev.Port)
			}
		}
		if ev.Kind == KindStuckVC && (ev.VC < 0 || ev.VC >= noc.NumVCs) {
			return fmt.Errorf("fault: stuckvc vc %d out of range", ev.VC)
		}
		switch ev.Kind {
		case KindHang, KindBabble, KindLinkStall, KindStuckVC:
			if ev.Dur <= 0 {
				return fmt.Errorf("fault: %s needs dur > 0", ev.Kind)
			}
		}
		if probabilistic && ev.At != 0 {
			return fmt.Errorf("fault: rate entries use every=, not at=")
		}
		return nil
	}
	for _, ev := range p.Events {
		if err := check(ev, false); err != nil {
			return err
		}
	}
	for _, r := range p.Rates {
		if r.MeanEvery < 1 {
			return fmt.Errorf("fault: rate %s needs every >= 1", r.Kind)
		}
		if err := check(r.Event, true); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan in the text format ParsePlan accepts.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", p.Seed)
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, ev := range evs {
		b.WriteString(ev.Kind.String())
		fmt.Fprintf(&b, " at=%d", ev.At)
		writeFields(&b, ev)
		b.WriteByte('\n')
	}
	for _, r := range p.Rates {
		b.WriteString(r.Kind.String())
		fmt.Fprintf(&b, " every=%d", r.MeanEvery)
		writeFields(&b, r.Event)
		b.WriteByte('\n')
	}
	return b.String()
}

func writeFields(b *strings.Builder, ev Event) {
	fmt.Fprintf(b, " tile=%d", ev.Tile)
	switch ev.Kind {
	case KindLinkStall, KindLinkFlip, KindStuckVC:
		fmt.Fprintf(b, " port=%s", portName(ev.Port))
	}
	if ev.Kind == KindStuckVC {
		fmt.Fprintf(b, " vc=%d", ev.VC)
	}
	if ev.Dur > 0 {
		fmt.Fprintf(b, " dur=%d", ev.Dur)
	}
	if ev.Kind == KindWildWrite && ev.Count > 1 {
		fmt.Fprintf(b, " count=%d", ev.Count)
	}
	if ev.Kind == KindBabble && ev.Svc != msg.SvcInvalid {
		fmt.Fprintf(b, " svc=%d", ev.Svc)
	}
}

func portName(p noc.Port) string {
	switch p {
	case noc.Local:
		return "L"
	case noc.North:
		return "N"
	case noc.South:
		return "S"
	case noc.East:
		return "E"
	case noc.West:
		return "W"
	}
	return fmt.Sprintf("%d", int(p))
}

func portFromString(s string) (noc.Port, bool) {
	switch s {
	case "L", "l", "local":
		return noc.Local, true
	case "N", "n", "north":
		return noc.North, true
	case "S", "s", "south":
		return noc.South, true
	case "E", "e", "east":
		return noc.East, true
	case "W", "w", "west":
		return noc.West, true
	}
	return 0, false
}
