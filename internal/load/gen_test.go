package load

import (
	"fmt"
	"reflect"
	"testing"

	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/obs"
	"apiary/internal/sim"
)

// genPort is a Port whose every send succeeds and that delivers nothing:
// the generator's arrival stream is all that moves.
type genPort struct{ now sim.Cycle }

func (p *genPort) Now() sim.Cycle                 { return p.now }
func (p *genPort) Recv() (*msg.Message, bool)     { return nil, false }
func (p *genPort) Send(*msg.Message) msg.ErrCode  { return msg.EOK }
func (p *genPort) Fault(uint8, accel.FaultReason) {}

// arrivalKey is the part of an arrival the planner decides.
type arrivalKey struct {
	At    sim.Cycle
	Seq   uint32
	Class uint8
}

// referenceArrivals is the naive per-cycle Q32 model of share i of n: one
// accumulator increment every cycle from 1 to the scenario end, except the
// withheld cycles [hang0, hang1), and per arrival the class draw then the
// session draw from the generator's seeded RNG.
func referenceArrivals(scn *Scenario, seed uint64, share, shares int, hang0, hang1 sim.Cycle) []arrivalKey {
	rng := sim.NewRNG(seed)
	per := scn.Sessions / shares
	count := per
	if share == shares-1 {
		count = scn.Sessions - share*per
	}
	totalW := scn.TotalWeight()
	var acc uint64
	var out []arrivalKey
	for t := sim.Cycle(1); t < scn.Dur(); t++ {
		if t >= hang0 && t < hang1 {
			continue
		}
		acc += incQ32(scn.RateAt(t)) / uint64(shares)
		for acc >= 1<<rateQ {
			acc -= 1 << rateQ
			v := rng.Intn(totalW)
			cls := 0
			for cls < len(scn.Classes)-1 && v >= scn.Classes[cls].Weight {
				v -= scn.Classes[cls].Weight
				cls++
			}
			if count > 0 {
				rng.Intn(count)
			}
			out = append(out, arrivalKey{At: t, Seq: uint32(len(out)), Class: uint8(cls)})
		}
	}
	return out
}

// driveAsleep runs g the way a board engine with idle-skip does: tick, then
// jump straight to the generator's next wake whenever it reports idle. The
// cycles [hang0, hang1) are withheld as a hung shell withholds them (the
// hang's start is an engine event, so no jump passes it). It returns the
// number of ticks.
func driveAsleep(g *Generator, until, hang0, hang1 sim.Cycle) int {
	p := &genPort{}
	ticks := 0
	for now := sim.Cycle(1); now <= until; {
		next := now + 1
		if now >= hang0 && now < hang1 {
			if now == hang0 {
				g.Withhold(now)
			}
			now = next
			continue
		}
		p.now = now
		g.Tick(p)
		ticks++
		if g.Idle() {
			w := g.NextWake()
			if w == 0 {
				w = until + 1
			}
			if now < hang0 && hang0 < w {
				w = hang0
			}
			if w > next {
				next = w
			}
		}
		now = next
	}
	return ticks
}

// randomScenario draws a scenario mixing constant, ramped, burst and
// diurnal phases at rates from zero to several arrivals per cycle.
func randomScenario(rng *sim.RNG) *Scenario {
	scn := &Scenario{Name: "prop", Sessions: 1 + rng.Intn(2000), Target: 40, Timeout: 500}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		scn.Classes = append(scn.Classes, Class{Name: fmt.Sprint("c", i), Weight: 1 + rng.Intn(9), Bytes: 8})
	}
	rate := func() uint64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return uint64(1_000_000 + rng.Intn(3_000_000)) // several per cycle
		default:
			return uint64(rng.Intn(60_000))
		}
	}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		p := Phase{Name: fmt.Sprint("p", i), Dur: sim.Cycle(1 + rng.Intn(6000))}
		p.RateFrom = rate()
		p.RateTo = p.RateFrom
		switch rng.Intn(5) {
		case 1:
			p.RateTo = rate()
		case 2:
			period := sim.Cycle(2 + rng.Intn(900))
			p.Burst = &Burst{Rate: rate(), Period: period, Dur: sim.Cycle(1 + rng.Intn(int(period-1)))}
		case 3:
			p.Diurnal = &Diurnal{Period: sim.Cycle(4 + rng.Intn(3000)), Swing: uint64(rng.Intn(20_000))}
		case 4:
			period := sim.Cycle(2 + rng.Intn(400))
			p.Burst = &Burst{Rate: rate(), Period: period, Dur: sim.Cycle(1 + rng.Intn(int(period-1)))}
			p.Diurnal = &Diurnal{Period: sim.Cycle(4 + rng.Intn(3000)), Swing: uint64(rng.Intn(20_000))}
		}
		scn.Phases = append(scn.Phases, p)
	}
	return scn
}

// TestGeneratorPlanMatchesPerCycle checks the sleeping generator — closed
// form arrival planning, lazy accumulator catch-up — against the naive
// per-cycle Q32 model: the (cycle, seq, class) arrival stream is identical,
// and every phase record lands exactly on its boundary cycle.
func TestGeneratorPlanMatchesPerCycle(t *testing.T) {
	rng := sim.NewRNG(2024)
	slept := 0
	for trial := 0; trial < 300; trial++ {
		scn := randomScenario(rng)
		if err := scn.Validate(noc.Dims{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shares := 1 + rng.Intn(8)
		share := rng.Intn(shares)
		seed := rng.Uint64()
		var hang0, hang1 sim.Cycle = 1 << 62, 1 << 62
		if rng.Intn(3) == 0 {
			hang0 = sim.Cycle(1 + rng.Intn(int(scn.Dur())))
			hang1 = hang0 + sim.Cycle(1+rng.Intn(2000))
		}

		g := NewGenerator(scn, scn.Target, seed, share, shares)
		g.Events = obs.NewEventLog(0)
		until := scn.Dur() + 2*scn.Timeout
		ticks := driveAsleep(g, until, hang0, hang1)
		if ticks < int(until)/2 {
			slept++
		}

		var got []arrivalKey
		for _, a := range g.Recording().Arrivals {
			got = append(got, arrivalKey{At: a.At, Seq: a.Seq, Class: a.Class})
		}
		want := referenceArrivals(scn, seed, share, shares, hang0, hang1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d/%d shares, hang [%d,%d)): %d arrivals, reference %d; scenario:\n%s",
				trial, share, shares, hang0, hang1, len(got), len(want), scn)
		}

		// A phase record per boundary, on the boundary cycle (or at the
		// first tick after a hang that spans it).
		var wantPh []sim.Cycle
		var edge sim.Cycle
		for _, p := range scn.Phases[:len(scn.Phases)-1] {
			edge += p.Dur
			at := edge
			if at >= hang0 && at < hang1 {
				at = hang1
			}
			if at < scn.Dur() && (len(wantPh) == 0 || wantPh[len(wantPh)-1] != at) {
				wantPh = append(wantPh, at)
			}
		}
		var gotPh []sim.Cycle
		for _, e := range g.Events.Events() {
			if e.Kind == obs.EvScenarioPhase {
				gotPh = append(gotPh, e.Cycle)
			}
		}
		if !reflect.DeepEqual(gotPh, wantPh) {
			t.Fatalf("trial %d (hang [%d,%d)): phase records at %v, want %v; scenario:\n%s", trial, hang0, hang1, gotPh, wantPh, scn)
		}
	}
	if slept < 50 {
		t.Fatalf("only %d of 300 trials slept through most cycles; the planner is not exercised", slept)
	}
}
