package shard

import "sync"

// MaxOverrides caps a Router's learned-override table. Past the cap an
// arbitrary entry is evicted to make room: an override only saves a
// bounce, so the next request for the evicted id costs one redirect
// and teaches it again.
const MaxOverrides = 4096

// Router is the placement rule every routing front shares: the ring's
// answer, unless a daemon has said otherwise. It holds an immutable
// Ring, each member's advertised URL (the form redirect hints take)
// and one bounded table of learned id -> member exceptions. All
// methods are safe for concurrent use.
type Router struct {
	ring  *Ring
	byURL map[string]string // advertised URL -> member; fixed at NewRouter

	mu       sync.RWMutex
	override map[string]string // id -> member, learned from hints
}

// NewRouter builds a router over peers, member name -> advertised URL,
// with the given virtual-node count per member (<= 0 selects
// DefaultReplicas). A member whose URL is "" is routed to like any
// other, but no hint can name it.
func NewRouter(peers map[string]string, replicas int) *Router {
	members := make([]string, 0, len(peers))
	byURL := make(map[string]string, len(peers))
	for name, url := range peers {
		members = append(members, name)
		if url != "" {
			byURL[url] = name
		}
	}
	return &Router{ring: New(members, replicas), byURL: byURL, override: make(map[string]string)}
}

// Ring returns the ring the router falls back on.
func (r *Router) Ring() *Ring { return r.ring }

// learned returns id's override, or "". One body serves both id forms:
// indexing a map by string(id) allocates for neither.
func learned[T string | []byte](r *Router, id T) string {
	r.mu.RLock()
	member := r.override[string(id)]
	r.mu.RUnlock()
	return member
}

// Owner returns the member to send a request for id to: the learned
// exception if there is one, the ring's owner otherwise ("" on an
// empty ring).
func (r *Router) Owner(id string) string {
	if member := learned(r, id); member != "" {
		return member
	}
	return r.ring.Owner(id)
}

// OwnerBytes is Owner for an id held as a byte slice; it allocates
// nothing.
func (r *Router) OwnerBytes(id []byte) string {
	if member := learned(r, id); member != "" {
		return member
	}
	return r.ring.OwnerBytes(id)
}

// Learn takes the hint a wrong-shard refusal of id carried, refusedBy
// being the member that sent it, and reports where to go next. Only a
// hint naming a configured member other than refusedBy is followed;
// anything else is neither followed nor remembered. A followed hint
// becomes id's override — or, when it agrees with the ring again, ends
// the exception.
func (r *Router) Learn(id, hint, refusedBy string) (member string, follow bool) {
	member, ok := r.byURL[hint]
	if !ok || member == refusedBy {
		return "", false
	}
	r.mu.Lock()
	if r.ring.Owner(id) == member {
		delete(r.override, id)
	} else {
		if _, known := r.override[id]; !known && len(r.override) >= MaxOverrides {
			for victim := range r.override {
				delete(r.override, victim)
				break
			}
		}
		r.override[id] = member
	}
	r.mu.Unlock()
	return member, true
}

// Overrides returns how many ids are currently routed away from the
// ring's answer.
func (r *Router) Overrides() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.override)
}
