package core

import (
	"fmt"
	"sort"

	"apiary/internal/cap"
	"apiary/internal/msg"
	"apiary/internal/obs"
)

// This file implements health-aware replica groups: a virtual service name
// backed by an ordered set of member services, re-bound by the kernel when
// the current primary fail-stops. Clients connect to the group service and
// never learn which member answers; on failover the kernel revokes the
// group endpoint generation (in-flight sends bounce with ERevoked, which is
// retryable and exempt from the violation budget), re-binds the name to the
// next healthy member's tile, and re-mints the endpoint capability into
// every table slot that held it. All of this happens in the kernel's
// message-delivery path, which runs in tile order during the commit phase
// — health transitions are bit-exact run to run.

// Health is the kernel's per-replica verdict, driven by monitor watchdogs
// and the quarantine/recovery lifecycle.
type Health uint8

// Health states. Up serves traffic; Degraded had a contained (per-context)
// fault but keeps running and remains eligible as a failover target of last
// resort; Quarantined is fenced off until recovery.
const (
	HealthUp Health = iota
	HealthDegraded
	HealthQuarantined
)

func (h Health) String() string {
	switch h {
	case HealthUp:
		return "up"
	case HealthDegraded:
		return "degraded"
	case HealthQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// ReplicaGroupSpec declares one health-aware replica set in an AppSpec:
// Service is the virtual name clients connect to, Members the backing
// services in failover-preference order. Every member must be a service
// declared by the same app's accelerators.
type ReplicaGroupSpec struct {
	Service msg.ServiceID
	Members []msg.ServiceID
}

// replicaGroup is the kernel's live state for one group.
type replicaGroup struct {
	svc     msg.ServiceID
	app     string
	members []msg.ServiceID // registration order = failover preference
	primary int             // index into members
}

// ReplicaHealth is one member's row in the service directory.
type ReplicaHealth struct {
	Svc     msg.ServiceID
	Tile    msg.TileID
	Health  Health
	Primary bool
}

// DirEntry is one replica group's row in the service directory.
type DirEntry struct {
	Svc     msg.ServiceID
	App     string
	Members []ReplicaHealth
}

// RegisterReplicaSet creates a health-aware replica group owned by app:
// groupSvc becomes a virtual service bound to the first member's tile.
// Every member must already be registered; the kernel validates the set
// (no duplicates, no self-reference, resolvable members) and rejects
// conflicts with existing names.
func (k *Kernel) RegisterReplicaSet(app string, groupSvc msg.ServiceID,
	members []msg.ServiceID) error {
	if groupSvc < msg.FirstUserService {
		return fmt.Errorf("core: group service %d is reserved", groupSvc)
	}
	if _, taken := k.services[groupSvc]; taken {
		return fmt.Errorf("core: group service %d already registered", groupSvc)
	}
	if _, taken := k.groups[groupSvc]; taken {
		return fmt.Errorf("core: group service %d already a group", groupSvc)
	}
	if len(members) == 0 {
		return fmt.Errorf("core: group service %d has no members", groupSvc)
	}
	seen := map[msg.ServiceID]bool{}
	for _, m := range members {
		if m == groupSvc {
			return fmt.Errorf("core: group service %d lists itself as a member", groupSvc)
		}
		if seen[m] {
			return fmt.Errorf("core: group service %d lists member %d twice", groupSvc, m)
		}
		seen[m] = true
		if _, ok := k.services[m]; !ok {
			return fmt.Errorf("core: group service %d member %d is not registered", groupSvc, m)
		}
		if _, ok := k.groups[m]; ok {
			return fmt.Errorf("core: group member %d is itself a group", m)
		}
		if g, ok := k.memberGroup[m]; ok {
			return fmt.Errorf("core: member %d already belongs to group %d", m, g)
		}
	}
	g := &replicaGroup{svc: groupSvc, app: app,
		members: append([]msg.ServiceID(nil), members...)}
	k.groups[groupSvc] = g
	k.groupOrder = append(k.groupOrder, groupSvc)
	for _, m := range members {
		k.memberGroup[m] = groupSvc
		if _, ok := k.health[m]; !ok {
			k.health[m] = HealthUp
		}
	}
	tile := k.services[g.members[0]]
	k.services[groupSvc] = tile
	k.svcOwner[groupSvc] = app
	k.bindAll(groupSvc, tile)
	return nil
}

// setHealth records a member's verdict and fails the group over when its
// primary stops being healthy. A member coming back Up while the current
// primary is still fenced also triggers failover: that is the self-heal
// path for groups that lost every member at once and kept the dead
// binding.
func (k *Kernel) setHealth(member msg.ServiceID, h Health) {
	gsvc, ok := k.memberGroup[member]
	if !ok {
		return
	}
	if k.health[member] == h {
		return
	}
	k.health[member] = h
	g := k.groups[gsvc]
	switch {
	case h == HealthQuarantined && g.members[g.primary] == member:
		k.failover(g)
	case h == HealthUp && k.health[g.members[g.primary]] == HealthQuarantined:
		k.failover(g)
	}
}

// failover re-binds a group to its next healthy member: prefer Up members,
// fall back to Degraded ones, scanning from the slot after the failed
// primary in registration order. With no survivor the binding is left
// alone — clients bounce off the fenced tile and retry until a member
// recovers.
func (k *Kernel) failover(g *replicaGroup) {
	next := -1
	for _, want := range []Health{HealthUp, HealthDegraded} {
		for i := 1; i <= len(g.members); i++ {
			c := (g.primary + i) % len(g.members)
			if k.health[g.members[c]] == want {
				next = c
				break
			}
		}
		if next >= 0 {
			break
		}
	}
	if next < 0 {
		return
	}
	old := g.members[g.primary]
	g.primary = next
	tile := k.services[g.members[next]]
	k.events.Record(k.engine.Now(), obs.EvFailover,
		fmt.Sprintf("primary %d %s", old, k.health[old]),
		fmt.Sprintf("group %d re-bound %d -> %d (tile %d)",
			g.svc, old, g.members[next], tile))
	// Fence in-flight sends against the old primary: the generation bump
	// bounces them with ERevoked at the sender's monitor (retryable, budget
	// exempt), then the fresh capability lands in the same granted slots.
	k.checker.Revoke(cap.KindEndpoint, uint32(g.svc))
	k.services[g.svc] = tile
	k.broadcastName(g.svc, tile)
	fresh := k.endpointCap(g.svc)
	for i := range k.grants {
		gr := &k.grants[i]
		if gr.c.Kind == cap.KindEndpoint && gr.c.Object == uint32(g.svc) {
			gr.c = fresh
			k.sendCtl(gr.tile, msg.TCtlInstallCap,
				msg.EncodeInstallCapReq(msg.InstallCapReq{
					Slot: uint32(gr.slot), Cap: fresh.Encode(),
				}))
		}
	}
	k.failoversC.Inc()
}

// dropGroups removes every replica group owned by app (unload/rollback).
func (k *Kernel) dropGroups(app string) {
	keptOrder := k.groupOrder[:0]
	for _, gsvc := range k.groupOrder {
		g := k.groups[gsvc]
		if g.app != app {
			keptOrder = append(keptOrder, gsvc)
			continue
		}
		for _, m := range g.members {
			delete(k.memberGroup, m)
			delete(k.health, m)
		}
		delete(k.groups, gsvc)
		delete(k.services, gsvc)
		delete(k.svcOwner, gsvc)
		k.bindAll(gsvc, msg.NoTile)
	}
	k.groupOrder = keptOrder
}

// MemberHealth reports a member service's current verdict (HealthUp for
// services outside any group).
func (k *Kernel) MemberHealth(svc msg.ServiceID) Health { return k.health[svc] }

// Failovers reports how many group re-binds the kernel has performed.
func (k *Kernel) Failovers() uint64 { return k.failoversC.Value() }

// GroupPrimary resolves a group to its current primary member service.
func (k *Kernel) GroupPrimary(groupSvc msg.ServiceID) (msg.ServiceID, bool) {
	g, ok := k.groups[groupSvc]
	if !ok {
		return msg.SvcInvalid, false
	}
	return g.members[g.primary], true
}

// Directory reports every replica group with per-member tile and health, in
// registration order — the kernel's service directory for observability.
func (k *Kernel) Directory() []DirEntry {
	out := make([]DirEntry, 0, len(k.groupOrder))
	for _, gsvc := range k.groupOrder {
		g := k.groups[gsvc]
		e := DirEntry{Svc: gsvc, App: g.app}
		for i, m := range g.members {
			e.Members = append(e.Members, ReplicaHealth{
				Svc: m, Tile: k.services[m], Health: k.health[m],
				Primary: i == g.primary,
			})
		}
		out = append(out, e)
	}
	return out
}

// DegradedTiles lists tiles hosting Degraded group members, in ID order
// (heatmap annotation).
func (k *Kernel) DegradedTiles() []msg.TileID {
	var out []msg.TileID
	for m, h := range k.health {
		if h != HealthDegraded {
			continue
		}
		if t, ok := k.services[m]; ok {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
