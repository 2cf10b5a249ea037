package fleet

import (
	"sort"

	sharding "ftnet/internal/shard"
)

// This file is the manager's view of the shard ring: which daemon owns
// which instance id, and the per-id pins that keep service seamless
// while an instance is in flight between daemons.
//
// Ownership resolution, in order:
//
//  1. No topology installed -> this daemon owns everything (the
//     single-daemon deployments every prior PR built; they pay one
//     atomic load).
//  2. The moved set -> an id pinned to this daemon regardless of the
//     ring. SetTopology pins every local instance the new ring
//     assigns elsewhere ("still mine until migrated"), so installing
//     a new ring never drops service; completeMigration erases the
//     pin, at which point the ring's answer (the new owner) takes
//     over and clients are redirected.
//  3. The ring.
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

// RingInfo describes the installed topology (the GET /v1/ring body).
type RingInfo struct {
	Self     string            `json:"self"`
	Peers    map[string]string `json:"peers"`
	Replicas int               `json:"replicas"`
	Members  []string          `json:"members"`
	Moved    int               `json:"moved"` // ids pinned away from the ring's answer
}

// SetTopology installs a shard-ring view: self is this daemon's member
// name, peers maps every member name (self included) to its advertised
// base URL, replicas is the virtual-node count (<= 0 selects the
// default). Installing a topology never interrupts service: every
// local instance the new ring assigns to another daemon is pinned to
// this daemon in the moved set until a migration actually moves it. An empty peers map (or empty self) clears sharding
// entirely.
//
// Concurrent requests resolve ownership against either the old or the
// new view — both are consistent; a rebalance then drains the pins.
func (m *Manager) SetTopology(self string, peers map[string]string, replicas int) {
	if self == "" || len(peers) == 0 {
		m.topo.Store(nil)
		m.movedMu.Lock()
		m.moved = nil
		m.movedN.Store(0)
		m.movedMu.Unlock()
		return
	}
	members := make([]string, 0, len(peers))
	cp := make(map[string]string, len(peers))
	for name, url := range peers {
		members = append(members, name)
		cp[name] = url
	}
	t := &topology{self: self, peers: cp, ring: sharding.New(members, replicas)}
	t.replicas = t.ring.Replicas()
	// Pin displaced local instances before the ring goes live, so no
	// request window exists where this daemon bounces an id it still
	// holds the only copy of. The pin is an availability bet — after a
	// crash mid-handoff the rebuilt copy may be stale; ReconcilePins
	// audits every pin against the ring owner and retires the ones a
	// committed handoff already moved.
	pins := make(map[string]struct{})
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for id, in := range s.instances {
			if !in.arriving() && t.ring.Owner(id) != self {
				pins[id] = struct{}{}
			}
		}
		s.mu.RUnlock()
	}
	m.movedMu.Lock()
	m.moved = pins
	m.movedN.Store(int64(len(pins)))
	m.topo.Store(t)
	m.movedMu.Unlock()
}

// ReconcileStats reports one ReconcilePins pass.
type ReconcileStats struct {
	Checked    int `json:"checked"`    // displaced pinned ids audited
	Retired    int `json:"retired"`    // stale copies retired (owner holds a committed copy)
	Kept       int `json:"kept"`       // owner has no committed copy (or an older one): still ours
	Unresolved int `json:"unresolved"` // owner unreachable or retire failed: re-run needed
}

// ReconcilePins audits every displaced id pinned to this daemon
// against the ring owner's actual state. The pin exists so installing
// a topology never drops service — but after a crash between the
// target's OpMigrate commit and the source's OpDelete, recovery
// rebuilds the handed-off instance and SetTopology would happily pin
// it to a daemon that no longer owns it. For each such id the owner is
// probed: a committed copy at the same or newer epoch means the
// handoff finished and the local copy is retired (journaled OpDelete,
// pin erased); anything else keeps the pin — absent or staged means
// the handoff never completed and this is still the only live copy.
// Unresolved probes keep the pin too (availability over a guess);
// ftnetd re-runs the pass until everything resolves.
//
// Runs under migrateMu so it never interleaves with an active handoff.
func (m *Manager) ReconcilePins() ReconcileStats {
	var st ReconcileStats
	t := m.topo.Load()
	if t == nil {
		return st
	}
	m.migrateMu.Lock()
	defer m.migrateMu.Unlock()
	for _, id := range m.Displaced() {
		if ownerName(m, t, id) != t.self {
			continue // not pinned here (already retired or re-routed)
		}
		in, ok := m.Get(id)
		if !ok {
			continue
		}
		st.Checked++
		owner := t.ring.Owner(id)
		state, epoch, err := Client{HTTP: probeClient, Base: t.peers[owner]}.MigrationState(id)
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

// Topology returns the installed ring view, or ok=false when this
// daemon is unsharded.
func (m *Manager) Topology() (RingInfo, bool) {
	t := m.topo.Load()
	if t == nil {
		return RingInfo{}, false
	}
	info := RingInfo{
		Self:     t.self,
		Peers:    t.peers,
		Replicas: t.replicas,
		Members:  append([]string(nil), t.ring.Members()...),
		Moved:    int(m.movedN.Load()),
	}
	return info, true
}

// Displaced returns the sorted ids of local instances the current ring
// assigns to another daemon — the work list of a rebalance. Staged
// inbound migrations are skipped (they are arriving, not leaving).
func (m *Manager) Displaced() []string {
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
	sort.Strings(ids)
	return ids
}

// ownerName resolves the owning member name for id under t, honoring
// the pins. Caller has checked t != nil.
func ownerName[T key](m *Manager, t *topology, id T) string {
	if m.movedN.Load() != 0 {
		m.movedMu.RLock()
		_, pinned := m.moved[string(id)] // no alloc: map index on conversion
		m.movedMu.RUnlock()
		if pinned {
			return t.self
		}
	}
	switch id := any(id).(type) {
	case string:
		return t.ring.Owner(id)
	case []byte:
		return t.ring.OwnerBytes(id)
	}
	panic("unreachable: a key is a string or a []byte")
}

// unpin erases id's pin: from here on the ring's answer routes it.
func (m *Manager) unpin(id string) {
	m.movedMu.Lock()
	if _, ok := m.moved[id]; ok {
		delete(m.moved, id)
		m.movedN.Add(-1)
	}
	m.movedMu.Unlock()
}

// checkOwned returns nil when this daemon owns id (or is unsharded),
// and ErrWrongShard with the owner's URL otherwise. The owned case —
// every request on a correctly-routed daemon — allocates nothing for
// either form of id.
func checkOwned[T key](m *Manager, id T) error {
	t := m.topo.Load()
	if t == nil {
		return nil
	}
	owner := ownerName(m, t, id)
	if owner == t.self {
		return nil
	}
	m.wrongShardTotal.Inc()
	return wrongShardf(t.peers[owner], "fleet: instance %q owned by shard %s", id, owner)
}
