package fleet

import (
	"context"
	"maps"
	"slices"

	sharding "ftnet/internal/shard"
)

// This file is the manager's view of the shard ring: which daemon owns
// an instance id this one holds no copy of. Ownership is possession, so
// nothing here is stored per id.
//
// Who serves an id, in order (resolve, in manager.go, is the code):
//
//  1. No topology installed -> this daemon owns everything (the
//     single-daemon deployments every prior PR built; they pay one
//     atomic load).
//  2. A copy held here — live or fenced, see phase in instance.go — is
//     served whatever the ring says: "still mine until migrated", so
//     installing a ring never drops service for a copy only this daemon
//     has, in whichever order the ring and the copy got here. A handoff
//     that commits moves the copy on (fenced -> moved), and from that
//     word on the ring's answer (the new owner) redirects clients.
//  3. The ring, for an id with no such copy here.
//
// A request for an id owned elsewhere is refused with ErrWrongShard
// carrying the owner's URL — never silently applied — which is the
// invariant the cutover race tests pin down.

// topology is an immutable ring-membership view; Manager.topo swaps it
// atomically.
type topology struct {
	self     string            // this daemon's member name
	peers    map[string]string // member name -> advertised base URL (includes self)
	replicas int
	ring     *sharding.Ring
}

// ringInfo describes the installed topology (the GET /v1/ring body).
type ringInfo struct {
	Self     string            `json:"self"`
	Peers    map[string]string `json:"peers"`
	Replicas int               `json:"replicas"`
	Members  []string          `json:"members"`
	Moved    int               `json:"moved"` // len(displaced()): copies held here that the ring assigns elsewhere
}

// SetTopology installs a shard-ring view: self is this daemon's member
// name, peers maps every member name (self included) to its advertised
// base URL, replicas is the virtual-node count (<= 0 selects the
// default). Installing a topology never interrupts service: a local
// instance the new ring assigns to another daemon is still held here,
// and served here, until a migration actually moves it. An empty peers
// map (or empty self) clears sharding entirely.
//
// Concurrent requests resolve ownership against either the old or the
// new view — both are consistent; a rebalance then hands the displaced
// copies over.
func (m *Manager) SetTopology(self string, peers map[string]string, replicas int) {
	if self == "" || len(peers) == 0 {
		m.topo.Store(nil)
		return
	}
	t := &topology{self: self, peers: maps.Clone(peers)}
	t.ring = sharding.New(slices.Collect(maps.Keys(peers)), replicas)
	t.replicas = t.ring.Replicas()
	m.topo.Store(t)
}

// reconcileStats reports one reconcilePins pass.
type reconcileStats struct {
	Checked    int // displaced copies audited
	Retired    int // stale copies retired (owner holds a committed copy)
	Kept       int // owner has no committed copy (or an older one): still ours
	Unresolved int // owner unreachable or retire failed: re-run needed
}

// reconcilePins audits every displaced copy this daemon holds against
// the ring owner's actual state. A held copy is served whatever the
// ring says, so that a ring never drops service — an availability bet:
// after a crash between the target's OpMigrate commit and the source's
// OpDelete, recovery rebuilds the handed-off instance and this daemon
// serves a copy it no longer owns. For each such id the owner is
// probed: a committed copy at the same or newer epoch means the
// handoff finished and the local copy is retired (journaled OpDelete);
// anything else keeps it — absent or staged means the handoff never
// completed and this is still the only live copy. Unresolved probes
// keep it too (availability over a guess); the daemon's audit loop
// (Daemon.reconcile) re-runs the pass until everything resolves. Every
// probe is bound to ctx: once it ends, the one in flight and the rest
// fail at once as unresolved, so a blackholed owner never holds up a
// drain.
//
// Runs under migrateMu so it never interleaves with an active handoff.
func (m *Manager) reconcilePins(ctx context.Context) reconcileStats {
	var st reconcileStats
	t := m.topo.Load()
	if t == nil {
		return st
	}
	m.migrateMu.Lock()
	defer m.migrateMu.Unlock()
	for _, id := range m.displaced() {
		in, ok := m.Get(id)
		if !ok || in.at() >= phaseMoved {
			continue // not held here any more (deleted, or on its way out)
		}
		st.Checked++
		probe := m.peerClient(t.peers[t.ring.Owner(id)], probeTimeout)
		probe.ctx = ctx
		state, epoch, err := probe.migrationState(id)
		if err != nil {
			st.Unresolved++
			continue
		}
		if state == "committed" && epoch >= in.snap.Load().Epoch() {
			if err := m.completeMigration(id, in); err != nil {
				st.Unresolved++
				continue
			}
			st.Retired++
		} else {
			st.Kept++
		}
	}
	return st
}

// ring returns the installed ring view, or ok=false when this
// daemon is unsharded.
func (m *Manager) ring() (ringInfo, bool) {
	t := m.topo.Load()
	if t == nil {
		return ringInfo{}, false
	}
	info := ringInfo{
		Self:     t.self,
		Peers:    t.peers,
		Replicas: t.replicas,
		Members:  append([]string(nil), t.ring.Members()...),
		Moved:    len(m.displaced()),
	}
	return info, true
}

// displaced returns the sorted ids of local instances the current ring
// assigns to another daemon — the work list of a rebalance, computed
// from the registry and the ring at each call. Staged inbound
// migrations are skipped (they are arriving, not leaving).
func (m *Manager) displaced() []string {
	t := m.topo.Load()
	if t == nil {
		return nil
	}
	var ids []string
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for id, in := range s.instances {
			if !in.arriving() && t.ring.Owner(id) != t.self {
				ids = append(ids, id)
			}
		}
		s.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// checkOwned is the ring and nothing else: nil when it gives id to this
// daemon (or there is none), and ErrWrongShard with the owner's URL
// otherwise. It allocates nothing for either form of id when it says
// nil.
func checkOwned[T key](m *Manager, id T) error {
	t := m.topo.Load()
	if t == nil {
		return nil
	}
	var owner string
	switch id := any(id).(type) {
	case string:
		owner = t.ring.Owner(id)
	case []byte:
		owner = t.ring.OwnerBytes(id)
	}
	if owner == t.self {
		return nil
	}
	m.wrongShardTotal.Inc()
	return wrongShardf(t.peers[owner], "fleet: instance %q owned by shard %s", id, owner)
}
