// Package shard maps the instance space onto a fleet of daemons: a
// consistent-hash ring decides which daemon owns which instance id,
// and a canonical migration-stream codec carries one instance's state
// (one checkpoint record) between daemons when ownership moves.
//
// Everything here must be deterministic across processes: every daemon
// and every client builds the ring from the same member list and must
// agree on every owner, so the hash is FNV-1a (fixed, seedless), not
// maphash. Ring values are immutable — a membership change builds a
// new ring — which is what makes the minimal-movement property easy to
// state and test: between New(members) and New(members ∪ {x}), the
// only keys whose owner changes are those x now owns.
//
// Router is what a client or proxy routes by: the ring plus a small
// set of learned exceptions, the same shape as the paper's
// reconfiguration map (identity plus a displacement read off a small
// sorted set). Its contract:
//
//   - A hint is the advertised URL of the daemon that owns an id right
//     now, sent by a daemon that refuses a request for it (HTTP 403 +
//     X-Ftnet-Owner, wire StatusWrongShard). Mid-migration the daemons
//     know better than the ring, so a hint overrides it.
//   - A hint arrives in a response, so it is checked on receipt: only
//     one naming a configured member is followed or remembered.
//     Anything else would let one misbehaving daemon steer traffic to
//     an address nobody configured.
//   - Overrides are a latency cache and nothing more. Dropping one —
//     eviction at the cap, a restart — costs the next request for that
//     id one bounce, which teaches it again; no request is ever
//     answered from an override.
//   - That is what sets them apart from who serves an id in fleet: a
//     daemon serves a copy because it holds it ("this daemon still has
//     the only copy"), and forgetting that early would be a daemon
//     bouncing requests for state nobody else has. That knowledge is
//     the copy itself, gone only with a committed handoff; it is not
//     an override and does not belong here.
package shard

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// DefaultReplicas is the virtual-node count per member when none is
// configured. At 128 vnodes the max/min load ratio across members
// stays within a small constant factor (the property test pins a
// bound), while keeping ring construction trivially cheap.
const DefaultReplicas = 128

// fnv-1a 64-bit constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 is a murmur3-style finalizer. FNV-1a alone barely avalanches
// into the high bits for short keys with sequential suffixes (vnode
// keys "m#0".."m#127" land clustered on the ring, ruining balance);
// the finalizer spreads every input bit across the whole word.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnvString hashes s with finalized FNV-1a (deterministic across
// processes).
func fnvString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// fnvBytes is fnvString for a byte slice (the wire plane's zero-copy
// id path); it allocates nothing.
func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a set of member
// names. The zero value is not usable; build one with New. All methods
// are safe for concurrent use (the ring never mutates).
type Ring struct {
	replicas int
	points   []point  // sorted by hash
	members  []string // sorted, deduplicated
}

// New builds a ring over members with the given virtual-node count per
// member (<= 0 selects DefaultReplicas). Duplicate member names
// collapse; an empty member set yields a ring whose Owner returns "".
func New(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	set := make(map[string]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	r := &Ring{replicas: replicas}
	for m := range set {
		r.members = append(r.members, m)
	}
	sort.Strings(r.members)
	r.points = make([]point, 0, len(r.members)*replicas)
	var key []byte
	for _, m := range r.members {
		// The vnode key is "member#v": deterministic, and distinct
		// members cannot collide into each other's vnode keys unless
		// their names already embed a "#" collision, which the sorted
		// order still resolves deterministically.
		key = append(append(key[:0], m...), '#')
		prefix := len(key)
		for v := 0; v < replicas; v++ {
			key = strconv.AppendInt(key[:prefix], int64(v), 10)
			r.points = append(r.points, point{hash: fnvBytes(key), member: m})
		}
	}
	slices.SortFunc(r.points, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), strings.Compare(a.member, b.member))
	})
	return r
}

// Members returns the sorted member names (shared slice; do not
// mutate).
func (r *Ring) Members() []string { return r.members }

// Replicas returns the virtual-node count per member.
func (r *Ring) Replicas() int { return r.replicas }

// ownerOf finds the first vnode at or after h, wrapping at the top.
func (r *Ring) ownerOf(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Owner returns the member that owns instance id ("" on an empty
// ring). Deterministic: every process building the same ring agrees.
func (r *Ring) Owner(id string) string { return r.ownerOf(fnvString(id)) }

// OwnerBytes is Owner for an id held as a byte slice (the binary wire
// plane decodes ids as payload subslices); it allocates nothing.
func (r *Ring) OwnerBytes(id []byte) string { return r.ownerOf(fnvBytes(id)) }
