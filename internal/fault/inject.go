package fault

import (
	"fmt"

	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// Target is the tile-level injection surface. core.System implements it over
// the kernel's tile table; test harnesses that assemble monitors and shells
// by hand implement it directly. Link-level kinds bypass the Target and act
// on the noc.Network. All methods are invoked from engine events on the main
// goroutine, between cycles.
type Target interface {
	// Hang makes the tile's accelerator stop consuming input until the
	// given cycle.
	Hang(tile msg.TileID, until sim.Cycle)
	// Babble makes the tile emit junk requests to svc every cycle until the
	// given cycle.
	Babble(tile msg.TileID, until sim.Cycle, svc msg.ServiceID)
	// WildWrite makes the tile emit count forged memory writes carrying a
	// dangling capability reference.
	WildWrite(tile msg.TileID, count int)
	// FalsePositive trips the tile's monitor as if a detector had fired.
	FalsePositive(tile msg.TileID)
}

// MigrateTarget is optionally implemented by targets that can live-migrate
// the application owning a tile (core.System's kernel adapter does; bare
// test harnesses need not). KindMigrate events on a target without it are
// counted but do nothing, keeping old harnesses working unchanged.
type MigrateTarget interface {
	// Migrate checkpoints and relocates the app owning tile to a new region.
	Migrate(tile msg.TileID)
}

// Injector compiles a Plan into engine events. Every injection runs between
// tick phases (the sim.Engine event contract), so an injected run perturbs
// simulation state at cycle boundaries only — which is why chaos runs stay
// bit-exact run to run, and why idle-skip never skips over an injection
// (the engine fast-forwards at most to the next event's cycle).
type Injector struct {
	plan   *Plan
	engine *sim.Engine
	net    *noc.Network
	target Target

	injected *sim.Counter
	armed    bool
}

// NewInjector binds a plan to a board. target may be nil for link-only
// plans; tile-level events on a nil target are counted but do nothing.
func NewInjector(p *Plan, e *sim.Engine, net *noc.Network, target Target,
	st *sim.Stats) *Injector {
	return &Injector{
		plan: p, engine: e, net: net, target: target,
		injected: st.Counter("fault.injected"),
	}
}

// Injected reports how many fault activations have fired so far.
func (in *Injector) Injected() uint64 { return in.injected.Value() }

// Arm validates the plan and schedules every event. Probabilistic rates draw
// their first inter-arrival here and re-draw on each firing, all from RNGs
// seeded by (plan seed, rate index) — independent of execution mode.
func (in *Injector) Arm() error {
	if in.armed {
		return fmt.Errorf("fault: injector already armed")
	}
	if err := in.plan.Validate(in.net.Dims()); err != nil {
		return err
	}
	in.armed = true
	now := in.engine.Now()
	for _, ev := range in.plan.Events {
		ev := ev
		at := ev.At
		if at <= now {
			at = now + 1
		}
		in.engine.Schedule(at, func(fireAt sim.Cycle) { in.apply(ev, fireAt) })
	}
	for i, r := range in.plan.Rates {
		r := r
		// One RNG per rate entry: draws are independent of other rates and
		// of how many scheduled events the plan carries.
		rng := sim.NewRNG(in.plan.Seed ^ (0x9E3779B97F4A7C15 * uint64(i+1)))
		in.scheduleRate(r, rng, now)
	}
	return nil
}

func (in *Injector) scheduleRate(r Rate, rng *sim.RNG, now sim.Cycle) {
	gap := sim.Cycle(rng.Exp(float64(r.MeanEvery)))
	if gap < 1 {
		gap = 1
	}
	in.engine.Schedule(now+gap, func(fireAt sim.Cycle) {
		in.apply(r.Event, fireAt)
		in.scheduleRate(r, rng, fireAt)
	})
}

func (in *Injector) apply(ev Event, now sim.Cycle) {
	in.injected.Inc()
	switch ev.Kind {
	case KindHang:
		if in.target != nil {
			in.target.Hang(ev.Tile, now+ev.Dur)
		}
	case KindBabble:
		if in.target != nil {
			in.target.Babble(ev.Tile, now+ev.Dur, ev.Svc)
		}
	case KindWildWrite:
		if in.target != nil {
			n := ev.Count
			if n < 1 {
				n = 1
			}
			in.target.WildWrite(ev.Tile, n)
		}
	case KindFalsePos:
		if in.target != nil {
			in.target.FalsePositive(ev.Tile)
		}
	case KindMigrate:
		if mt, ok := in.target.(MigrateTarget); ok {
			mt.Migrate(ev.Tile)
		}
	case KindLinkStall:
		in.net.StallLink(ev.Tile, ev.Port, now+ev.Dur)
	case KindStuckVC:
		in.net.StickVC(ev.Tile, ev.Port, noc.VCID(ev.VC), now+ev.Dur)
	case KindLinkFlip:
		in.net.CorruptNext(ev.Tile, ev.Port)
	}
}
