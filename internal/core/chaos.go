package core

import (
	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// chaosTarget adapts the kernel's tile table to fault.Target, letting the
// chaos engine reach shells and monitors without the fault package importing
// core. All four hooks run between tick phases (the injector schedules them
// as engine events), so touching tile state directly is safe.
type chaosTarget struct {
	k *Kernel
}

func (c *chaosTarget) tile(t msg.TileID) *tileState {
	if int(t) >= len(c.k.tiles) {
		return nil
	}
	return c.k.tiles[t]
}

// Hang freezes the accelerator logic on tile t until the given cycle; the
// shell keeps accepting deliveries, so the heartbeat watchdog sees a stuck
// input queue.
func (c *chaosTarget) Hang(t msg.TileID, until sim.Cycle) {
	if ts := c.tile(t); ts != nil && ts.shell != nil {
		ts.shell.SetHang(until)
	}
}

// Babble makes tile t spray unsolicited requests at svc until the given
// cycle (a misbehaving accelerator flooding the NoC).
func (c *chaosTarget) Babble(t msg.TileID, until sim.Cycle, svc msg.ServiceID) {
	if ts := c.tile(t); ts != nil && ts.shell != nil {
		ts.shell.SetBabble(until, svc)
	}
}

// WildWrite pushes count forged memory writes with a bogus capability
// through tile t's monitor — the canonical protocol violation.
func (c *chaosTarget) WildWrite(t msg.TileID, count int) {
	ts := c.tile(t)
	if ts == nil || ts.mon == nil {
		return
	}
	for i := 0; i < count; i++ {
		_ = ts.mon.InjectWildWrite()
	}
}

// FalsePositive makes tile t's monitor report a fault that never happened,
// exercising the quarantine/recovery path on a healthy tile.
func (c *chaosTarget) FalsePositive(t msg.TileID) {
	if ts := c.tile(t); ts != nil && ts.mon != nil {
		ts.mon.ForceFault(0, accel.FaultSpurious)
	}
}

// Migrate live-migrates whatever app owns tile t to a new region
// (fault.MigrateTarget): the chaos engine's way of putting checkpoint/
// restore under fire mid-scenario. System tiles and free tiles are skipped;
// an already-migrating app is left alone.
func (c *chaosTarget) Migrate(t msg.TileID) {
	ts := c.tile(t)
	if ts == nil || ts.app == "" || ts.app == "apiary" || ts.app == migrHold {
		return
	}
	_ = c.k.MigrateApp(ts.app)
}
