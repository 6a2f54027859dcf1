package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"apiary/internal/accel"
	"apiary/internal/cap"
	"apiary/internal/memseg"
	"apiary/internal/msg"
	"apiary/internal/obs"
	"apiary/internal/sim"
)

// This file implements checkpoint/restore and kernel-driven live migration:
// quiesce an application's tiles over the management plane (a *healthy*
// drain — in-flight replies are still delivered, new requests bounce with
// the retryable EQuiescing so client backoff absorbs the window), serialize
// its architectural state through the Checkpointable contract into a
// versioned snapshot blob, tear the old placement down gently (generation
// bump, never RevokeObject — granted slots survive for the re-mint, exactly
// as in quarantine), and after the partial-reconfiguration delay reload the
// app in a new region, restore every context and segment, re-mint the
// endpoint capabilities at the new generation into the surviving client
// slots, and resume. A quiesce that times out aborts cleanly: TCtlResume
// un-quiesces the shells without a Reset, so the source stays authoritative
// with no state loss.

// Quiesce/migration timing. The poll interval bounds how often the kernel
// re-checks quiescence; the timeout bounds the retry window clients ride
// out before the kernel gives up and resumes the source.
const (
	quiescePollCycles sim.Cycle = 64
	quiesceTimeout    sim.Cycle = 200_000
)

// migrHold parks a tile between detach and reload so the reload prefers a
// fresh region. Held tiles are invisible to freeTiles and released when the
// migration completes or fails.
const migrHold = "!migrating"

// SegRefSetter is implemented by accelerators whose logic holds a segment
// capability reference (e.g. the KV store's snapshot segment). The kernel
// re-points the reference after migration: the slot number is architectural
// per-placement state that the snapshot deliberately does not carry.
type SegRefSetter interface {
	SetSegRef(ref uint32)
}

// AccelSnapshot is one accelerator instance's captured state.
type AccelSnapshot struct {
	Name     string
	Contexts [][]byte // per-context Checkpointable blobs (nil = no state)
	SegBytes []byte   // pre-allocated segment contents (nil = no segment)
}

// Snapshot is a quiescent application's complete architectural state. The
// manifest (AppSpec) is deliberately not part of it: constructors are code,
// not state, and the restoring side supplies its own spec.
type Snapshot struct {
	App    string
	Accels []AccelSnapshot
}

// Snapshot wire format: a versioned, length-prefixed blob safe to feed to
// an untrusted decoder. Every length is bounds-checked against what remains
// and against hard caps, so DecodeSnapshot on arbitrary bytes returns an
// error — never a panic, never a partially-applied restore.
const (
	snapMagic   = "APSN"
	snapVersion = 1

	maxSnapAccels   = 4096
	maxSnapContexts = 256
	maxSnapField    = 1 << 26 // 64 MiB per context/segment field
)

// ErrSnapshot is wrapped by every DecodeSnapshot failure.
var ErrSnapshot = errors.New("core: malformed snapshot")

// EncodeSnapshot serializes a snapshot into the versioned wire blob.
func EncodeSnapshot(s *Snapshot) []byte {
	var out []byte
	out = append(out, snapMagic...)
	out = appendU16(out, snapVersion)
	out = appendStr(out, s.App)
	out = appendU16(out, uint16(len(s.Accels)))
	for _, a := range s.Accels {
		out = appendStr(out, a.Name)
		out = appendU16(out, uint16(len(a.Contexts)))
		for _, c := range a.Contexts {
			out = appendBlob(out, c)
		}
		out = appendBlob(out, a.SegBytes)
	}
	return out
}

func appendU16(b []byte, v uint16) []byte {
	var u [2]byte
	binary.LittleEndian.PutUint16(u[:], v)
	return append(b, u[0], u[1])
}

func appendStr(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// appendBlob writes presence(1) + len(4) + bytes. Nil and empty slices both
// encode as absent and round-trip back to nil — the encoding is canonical,
// so Encode(Decode(blob)) is a fixed point.
func appendBlob(b, p []byte) []byte {
	if len(p) == 0 {
		return append(b, 0)
	}
	b = append(b, 1)
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(p)))
	b = append(b, u[:]...)
	return append(b, p...)
}

// snapReader is a bounds-checked cursor over a snapshot blob.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) u16() (uint16, error) {
	if r.off+2 > len(r.b) {
		return 0, ErrSnapshot
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *snapReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrSnapshot
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *snapReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, ErrSnapshot
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *snapReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	p, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

func (r *snapReader) blob() ([]byte, error) {
	p, err := r.take(1)
	if err != nil {
		return nil, err
	}
	if p[0] == 0 {
		return nil, nil
	}
	if p[0] != 1 {
		return nil, ErrSnapshot
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxSnapField {
		return nil, ErrSnapshot
	}
	raw, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), raw...), nil
}

// DecodeSnapshot parses a snapshot blob. Arbitrary input yields an error;
// the returned snapshot is fully built before it is returned, so a decode
// failure never leaks a half-parsed result.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	r := &snapReader{b: b}
	magic, err := r.take(len(snapMagic))
	if err != nil || string(magic) != snapMagic {
		return nil, ErrSnapshot
	}
	ver, err := r.u16()
	if err != nil {
		return nil, err
	}
	if ver != snapVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrSnapshot, ver, snapVersion)
	}
	s := &Snapshot{}
	if s.App, err = r.str(); err != nil {
		return nil, err
	}
	nAccels, err := r.u16()
	if err != nil {
		return nil, err
	}
	if int(nAccels) > maxSnapAccels {
		return nil, ErrSnapshot
	}
	for i := 0; i < int(nAccels); i++ {
		var a AccelSnapshot
		if a.Name, err = r.str(); err != nil {
			return nil, err
		}
		nCtx, err := r.u16()
		if err != nil {
			return nil, err
		}
		if int(nCtx) > maxSnapContexts {
			return nil, ErrSnapshot
		}
		for c := 0; c < int(nCtx); c++ {
			blob, err := r.blob()
			if err != nil {
				return nil, err
			}
			a.Contexts = append(a.Contexts, blob)
		}
		if a.SegBytes, err = r.blob(); err != nil {
			return nil, err
		}
		s.Accels = append(s.Accels, a)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshot, len(b)-r.off)
	}
	return s, nil
}

// SetDRAM attaches the board's memory channel so checkpoints can capture
// segment contents at a quiescent point.
func (k *Kernel) SetDRAM(d *memseg.DRAM) { k.dram = d }

// QuiesceApp starts a healthy drain of every tile the app occupies: the
// monitors flip their shells to Quiescing over the management plane.
// In-flight replies keep flowing; new requests bounce with EQuiescing.
func (k *Kernel) QuiesceApp(name string) error {
	app, ok := k.apps[name]
	if !ok {
		return fmt.Errorf("core: app %q not loaded", name)
	}
	for _, p := range app.Placed {
		k.sendCtl(p.Tile, msg.TCtlQuiesce, nil)
	}
	return nil
}

// ResumeApp un-quiesces the app's tiles: TCtlResume on a Quiescing shell
// returns it to Running *without* a Reset, so an aborted migration leaves
// the source authoritative with all state intact. Quarantined tiles are
// skipped — reviving them belongs to the recovery path.
func (k *Kernel) ResumeApp(name string) error {
	app, ok := k.apps[name]
	if !ok {
		return fmt.Errorf("core: app %q not loaded", name)
	}
	for _, p := range app.Placed {
		if k.quarantined[p.Tile] {
			continue
		}
		k.sendCtl(p.Tile, msg.TCtlResume, nil)
	}
	return nil
}

// AppQuiescent reports whether every tile of the app has drained: shells in
// Quiescing with empty admission queues and accelerator-level quiescence
// (no in-flight sends or memory ops).
func (k *Kernel) AppQuiescent(name string) bool {
	app, ok := k.apps[name]
	if !ok {
		return false
	}
	return k.appQuiescent(app)
}

func (k *Kernel) appQuiescent(app *App) bool {
	for _, p := range app.Placed {
		sh := k.tiles[p.Tile].shell
		if sh == nil || !sh.Quiescent() {
			return false
		}
	}
	return true
}

// Checkpoint captures a quiescent app's architectural state: every
// Checkpointable context plus the raw contents of each pre-allocated
// segment (read synchronously — the transfer cost is charged by the
// migration's PR delay, or by the cross-board link budget).
func (k *Kernel) Checkpoint(name string) (*Snapshot, error) {
	app, ok := k.apps[name]
	if !ok {
		return nil, fmt.Errorf("core: app %q not loaded", name)
	}
	if !k.appQuiescent(app) {
		return nil, fmt.Errorf("core: app %q is not quiescent", name)
	}
	snap := &Snapshot{App: name}
	for _, p := range app.Placed {
		ts := k.tiles[p.Tile]
		as := AccelSnapshot{Name: p.Name}
		logic := ts.shell.Accelerator()
		if cp, ok := logic.(accel.Checkpointable); ok {
			for c := 0; c < logic.Contexts(); c++ {
				st, err := cp.SaveContext(uint8(c))
				if err != nil {
					return nil, fmt.Errorf("core: checkpoint %s/%s ctx %d: %w",
						name, p.Name, c, err)
				}
				as.Contexts = append(as.Contexts, st)
			}
		}
		if p.SegID != 0 && k.dram != nil {
			if seg, ok := k.alloc.Lookup(memseg.SegID(p.SegID)); ok {
				as.SegBytes = k.dram.Peek(seg.Base, int(seg.Size))
			}
		}
		snap.Accels = append(snap.Accels, as)
	}
	return snap, nil
}

// RestoreApp loads the app from spec and applies a snapshot: contexts are
// restored through the Checkpointable contract, segment bytes land in the
// freshly allocated segments, and segment references are re-pointed. A
// restore failure (snapshot larger than the new region's resources, context
// mismatch) unloads the half-restored app and reports the error — nothing
// partially applied stays live.
func (k *Kernel) RestoreApp(spec AppSpec, snap *Snapshot) (*App, error) {
	app, err := k.LoadApp(spec)
	if err != nil {
		return nil, err
	}
	if err := k.applySnapshot(app, snap); err != nil {
		_ = k.UnloadApp(spec.Name)
		return nil, err
	}
	return app, nil
}

func (k *Kernel) applySnapshot(app *App, snap *Snapshot) error {
	byName := map[string]AccelSnapshot{}
	for _, as := range snap.Accels {
		byName[as.Name] = as
	}
	for i, p := range app.Placed {
		as, ok := byName[p.Name]
		if !ok {
			continue
		}
		ts := k.tiles[p.Tile]
		logic := ts.shell.Accelerator()
		if len(as.Contexts) > 0 {
			cp, ok := logic.(accel.Checkpointable)
			if !ok {
				return fmt.Errorf("core: restore %s/%s: accelerator is not checkpointable",
					app.Spec.Name, p.Name)
			}
			if len(as.Contexts) > logic.Contexts() {
				return fmt.Errorf("core: restore %s/%s: snapshot has %d contexts, region has %d",
					app.Spec.Name, p.Name, len(as.Contexts), logic.Contexts())
			}
			for c, st := range as.Contexts {
				if st == nil {
					continue
				}
				if err := cp.RestoreContext(uint8(c), st); err != nil {
					return fmt.Errorf("core: restore %s/%s ctx %d: %w",
						app.Spec.Name, p.Name, c, err)
				}
			}
		}
		if len(as.SegBytes) > 0 {
			if p.SegID == 0 || k.dram == nil {
				return fmt.Errorf("core: restore %s/%s: snapshot carries %d segment bytes but the region has no segment",
					app.Spec.Name, p.Name, len(as.SegBytes))
			}
			seg, ok := k.alloc.Lookup(memseg.SegID(p.SegID))
			if !ok {
				return fmt.Errorf("core: restore %s/%s: segment %d vanished",
					app.Spec.Name, p.Name, p.SegID)
			}
			if uint64(len(as.SegBytes)) > seg.Size {
				return fmt.Errorf("core: restore %s/%s: snapshot segment is %d bytes, region segment holds %d",
					app.Spec.Name, p.Name, len(as.SegBytes), seg.Size)
			}
			k.dram.Poke(seg.Base, as.SegBytes)
			if sr, ok := logic.(SegRefSetter); ok {
				sr.SetSegRef(uint32(app.Placed[i].SegSlot))
			}
		}
	}
	return nil
}

// ownedServices lists the services owned by an app in ascending ID order —
// a deterministic iteration base for revocation and re-mint sweeps (map
// order would reorder management-plane messages and break bit-exactness).
func (k *Kernel) ownedServices(name string) []msg.ServiceID {
	var out []msg.ServiceID
	for svc, owner := range k.svcOwner {
		if owner == name {
			out = append(out, svc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// detachApp is the gentle half of UnloadApp: endpoint generations are
// bumped (stale client sends bounce ERevoked locally — retryable, budget
// exempt) but granted slots and name bindings survive for the re-mint;
// segments are freed (their bytes already live in the snapshot); tiles are
// stopped, wiped and *held* so the reload lands in a fresh region. Returns
// the spec needed to reload and the held tiles.
func (k *Kernel) detachApp(name string) (AppSpec, []msg.TileID, error) {
	app, ok := k.apps[name]
	if !ok {
		return AppSpec{}, nil, fmt.Errorf("core: app %q not loaded", name)
	}
	appTiles := map[msg.TileID]bool{}
	for _, p := range app.Placed {
		appTiles[p.Tile] = true
	}

	// Fence stale endpoints (groups included) before dropping the group
	// records: the generation bump is what bounces in-window sends.
	svcs := k.ownedServices(name)
	for _, svc := range svcs {
		k.checker.Revoke(cap.KindEndpoint, uint32(svc))
	}
	k.dropGroups(name)
	for _, svc := range svcs {
		delete(k.services, svc)
		delete(k.svcOwner, svc)
		delete(k.exports, svc)
	}
	for _, svc := range app.Spec.Exports {
		delete(k.exports, svc)
	}

	// Segments: contents are in the snapshot; free and fence the IDs. Sorted
	// order keeps the allocator's hole list deterministic.
	var segIDs []uint32
	for segID, owner := range k.segOwner {
		if appTiles[owner] {
			segIDs = append(segIDs, segID)
		}
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	for _, segID := range segIDs {
		_ = k.alloc.Free(memseg.SegID(segID))
		delete(k.segOwner, segID)
		k.checker.Revoke(cap.KindSegment, segID)
	}

	// Tiles: stop, detach, wipe, reclaim the region, and park under the
	// migration hold so the reload prefers fresh tiles.
	held := make([]msg.TileID, 0, len(app.Placed))
	for _, p := range app.Placed {
		ts := k.tiles[p.Tile]
		if ts.shell != nil {
			ts.shell.SetState(accel.Stopped)
		}
		ts.mon.DetachShell()
		for i := 0; i < ts.mon.Table().Slots(); i++ {
			ts.mon.Table().Remove(cap.Ref(i))
		}
		ts.accel, ts.svc = "", msg.SvcInvalid
		ts.app = migrHold
		ts.slotNo = firstDynamicSlot
		if k.regions != nil {
			k.regions[p.Tile].Clear()
		}
		held = append(held, p.Tile)
	}

	// Processes and grants on the app's tiles go; grants of the app's
	// endpoints installed on *client* tiles survive for the re-mint.
	kept := k.procs[:0]
	for _, pr := range k.procs {
		if !appTiles[pr.Tile] {
			kept = append(kept, pr)
		}
	}
	k.procs = kept
	keptGrants := k.grants[:0]
	for _, g := range k.grants {
		if !appTiles[g.tile] {
			keptGrants = append(keptGrants, g)
		}
	}
	k.grants = keptGrants

	spec := app.Spec
	delete(k.apps, name)
	return spec, held, nil
}

// releaseHeld returns migration-held tiles to the free pool.
func (k *Kernel) releaseHeld(tiles []msg.TileID) {
	for _, t := range tiles {
		if k.tiles[t].app == migrHold {
			k.tiles[t].app = ""
		}
	}
}

// remintApp installs the app's post-migration endpoint capabilities into
// every surviving granted slot, exactly as quarantine recovery does: same
// slots, new generation. Client requests that bounced ERevoked through the
// window start landing on the new region.
func (k *Kernel) remintApp(name string) {
	for _, svc := range k.ownedServices(name) {
		fresh := k.endpointCap(svc)
		for i := range k.grants {
			g := &k.grants[i]
			if g.c.Kind == cap.KindEndpoint && g.c.Object == uint32(svc) &&
				g.c.Gen != fresh.Gen {
				g.c = fresh
				k.sendCtl(g.tile, msg.TCtlInstallCap,
					msg.EncodeInstallCapReq(msg.InstallCapReq{
						Slot: uint32(g.slot), Cap: fresh.Encode(),
					}))
			}
		}
	}
}

// migration is one in-flight on-board migration.
type migration struct {
	app      string
	deadline sim.Cycle
}

// Migrating reports whether an on-board migration of app name is in flight.
func (k *Kernel) Migrating(name string) bool {
	_, ok := k.migrations[name]
	return ok
}

// MigrationsDone and MigrationAborts report lifetime counts.
func (k *Kernel) MigrationsDone() uint64  { return k.migDoneC.Value() }
func (k *Kernel) MigrationAborts() uint64 { return k.migAbortC.Value() }

// MigrateApp live-migrates a loaded app to a new region on this board:
// quiesce, checkpoint, gentle teardown, PR delay, reload + restore,
// re-mint, resume. The call returns once the quiesce is underway; the rest
// runs on the engine's event spine, so repeated runs take identical
// decisions at identical cycles. A quiesce that cannot drain
// within the timeout aborts with the source resumed and authoritative.
func (k *Kernel) MigrateApp(name string) error {
	app, ok := k.apps[name]
	if !ok {
		return fmt.Errorf("core: app %q not loaded", name)
	}
	if _, busy := k.migrations[name]; busy {
		return fmt.Errorf("core: app %q is already migrating", name)
	}
	for _, p := range app.Placed {
		if k.quarantined[p.Tile] {
			return fmt.Errorf("core: app %q has quarantined tile %d", name, p.Tile)
		}
	}
	m := &migration{app: name, deadline: k.engine.Now() + quiesceTimeout}
	if k.migrations == nil {
		k.migrations = map[string]*migration{}
	}
	k.migrations[name] = m
	k.events.Record(k.engine.Now(), obs.EvMigrateStart, "migrate",
		fmt.Sprintf("app %q quiescing %d tiles", name, len(app.Placed)))
	for _, p := range app.Placed {
		k.sendCtl(p.Tile, msg.TCtlQuiesce, nil)
	}
	k.engine.After(quiescePollCycles, func(sim.Cycle) { k.pollQuiesce(m) })
	return nil
}

// pollQuiesce re-checks drain progress until quiescence or timeout.
func (k *Kernel) pollQuiesce(m *migration) {
	if k.migrations[m.app] != m {
		return // aborted or superseded
	}
	app, ok := k.apps[m.app]
	if !ok {
		delete(k.migrations, m.app)
		return
	}
	if !k.appQuiescent(app) {
		if k.engine.Now() >= m.deadline {
			k.abortMigration(m, "quiesce-timeout")
			return
		}
		k.engine.After(quiescePollCycles, func(sim.Cycle) { k.pollQuiesce(m) })
		return
	}
	snap, err := k.Checkpoint(m.app)
	if err != nil {
		k.abortMigration(m, "checkpoint: "+err.Error())
		return
	}
	blob := EncodeSnapshot(snap)
	k.events.Record(k.engine.Now(), obs.EvMigrateSnapshot, "quiescent",
		fmt.Sprintf("app %q snapshot %d bytes", m.app, len(blob)))

	cells := 0
	for _, a := range app.Spec.Accels {
		c := a.Cells
		if c == 0 {
			c = defaultCells
		}
		if c > cells {
			cells = c
		}
	}
	spec, held, err := k.detachApp(m.app)
	if err != nil {
		k.abortMigration(m, "detach: "+err.Error())
		return
	}
	delay := prBaseCycles + prCyclesPerCell*sim.Cycle(cells)
	k.engine.After(delay, func(sim.Cycle) {
		k.completeMigration(m, spec, snap, held)
	})
}

// abortMigration resumes the source in place: the quiesced shells return to
// Running without a Reset, nothing was torn down, nothing is lost.
func (k *Kernel) abortMigration(m *migration, cause string) {
	delete(k.migrations, m.app)
	k.migAbortC.Inc()
	k.events.Record(k.engine.Now(), obs.EvMigrateAbort, cause,
		fmt.Sprintf("app %q resumed in place, source authoritative", m.app))
	_ = k.ResumeApp(m.app)
}

// completeMigration reloads the app in a fresh region and restores it. The
// old tiles are released after placement, so the reload lands elsewhere
// when capacity allows and falls back to the old region when the board is
// otherwise full.
func (k *Kernel) completeMigration(m *migration, spec AppSpec, snap *Snapshot, held []msg.TileID) {
	if k.migrations[m.app] != m {
		k.releaseHeld(held)
		return
	}
	if len(k.freeTiles()) < len(spec.Accels) {
		k.releaseHeld(held)
		held = nil
	}
	app, err := k.RestoreApp(spec, snap)
	k.releaseHeld(held)
	delete(k.migrations, m.app)
	if err != nil {
		// The source region is gone: unlike a quiesce timeout there is no
		// clean abort target. The failure is recorded; the app is unloaded.
		k.migAbortC.Inc()
		k.events.Record(k.engine.Now(), obs.EvMigrateAbort, "reload: "+err.Error(),
			fmt.Sprintf("app %q could not be restored", m.app))
		return
	}
	k.remintApp(m.app)
	k.migDoneC.Inc()
	var tiles []string
	for _, p := range app.Placed {
		tiles = append(tiles, fmt.Sprintf("%d", p.Tile))
	}
	k.events.Record(k.engine.Now(), obs.EvMigrateDone, "migrate",
		fmt.Sprintf("app %q resumed on tiles %v", m.app, tiles))
}
