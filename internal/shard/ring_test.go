package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickCfg returns a deterministic testing/quick config: the default
// Rand is time-seeded, which would make the property bounds flaky.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: maxCount}
}

// membersFrom derives a deterministic membership of size n (2..9) from
// a seed, named like real daemon endpoints.
func membersFrom(seed uint64, n int) []string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("daemon-%d-%d", seed%97, i)
	}
	return members
}

// keysFrom derives nk deterministic instance ids in the same shape the
// fleet uses.
func keysFrom(rng *rand.Rand, nk int) []string {
	keys := make([]string, nk)
	for i := range keys {
		keys[i] = fmt.Sprintf("inst-%d-%d", rng.Uint64(), i)
	}
	return keys
}

func TestRingDeterministicAndBytesAgree(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		members := membersFrom(seed, 2+rng.Intn(7))
		// Same membership presented in a different order must build an
		// identical ring.
		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a, b := New(members, 64), New(shuffled, 64)
		for _, key := range keysFrom(rng, 256) {
			if a.Owner(key) != b.Owner(key) {
				return false
			}
			if a.Owner(key) != a.OwnerBytes([]byte(key)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(50)); err != nil {
		t.Fatal(err)
	}
}

func TestRingBalanceProperty(t *testing.T) {
	// Balance: with the default vnode count, the busiest member holds at
	// most ~2.5x the load of the quietest across random memberships and
	// key populations. The bound is loose against hash variance but
	// tight enough to catch a broken vnode scheme (e.g. one vnode per
	// member can exceed 10x).
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		members := membersFrom(seed, 3+rng.Intn(6))
		r := New(members, 0)
		load := make(map[string]int, len(members))
		for _, key := range keysFrom(rng, 8192) {
			load[r.Owner(key)]++
		}
		min, max := 1<<62, 0
		for _, m := range members {
			n := load[m]
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if min == 0 {
			return false // a member owning nothing is a balance failure outright
		}
		ratio := float64(max) / float64(min)
		if ratio > 2.5 {
			t.Logf("seed %d: %d members, max/min = %d/%d = %.2f", seed, len(members), max, min, ratio)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(25)); err != nil {
		t.Fatal(err)
	}
}

func TestRingMinimalMovementProperty(t *testing.T) {
	// Minimal movement, both directions: when a daemon joins, the only
	// keys that change owner are those the joiner now owns; when it
	// leaves, the only keys that change owner are those it owned. No
	// unrelated key ever moves — the property that makes a rebalance
	// migrate O(moved) instances instead of reshuffling the fleet.
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		members := membersFrom(seed, 2+rng.Intn(6))
		joiner := fmt.Sprintf("daemon-join-%d", seed%89)
		before := New(members, 0)
		after := New(append(append([]string(nil), members...), joiner), 0)
		keys := keysFrom(rng, 4096)
		moved := 0
		for _, key := range keys {
			ob, oa := before.Owner(key), after.Owner(key)
			if ob != oa {
				moved++
				if oa != joiner {
					t.Logf("seed %d: join moved %q from %q to %q (not the joiner)", seed, key, ob, oa)
					return false
				}
			}
		}
		// The joiner must actually receive a share — and not the whole
		// keyspace.
		if moved == 0 || moved == len(keys) {
			return false
		}
		// Leave direction: removing the joiner must restore exactly the
		// old assignment (rings are pure functions of membership), and
		// keys not owned by the leaver must not move.
		for _, key := range keys {
			if after.Owner(key) != joiner && before.Owner(key) != after.Owner(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(25)); err != nil {
		t.Fatal(err)
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := New(nil, 0)
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
	single := New([]string{"only"}, 4)
	for _, key := range []string{"a", "b", "c"} {
		if got := single.Owner(key); got != "only" {
			t.Fatalf("single-member ring owner(%q) = %q", key, got)
		}
	}
	dup := New([]string{"a", "b", "a"}, 8)
	if got := len(dup.Members()); got != 2 {
		t.Fatalf("duplicate members collapsed to %d, want 2", got)
	}
	if r := New([]string{"a"}, -3); r.Replicas() != DefaultReplicas {
		t.Fatalf("replicas = %d, want default %d", r.Replicas(), DefaultReplicas)
	}
}

// TestRingOwnersGolden pins where a fixed id set lands on a fixed
// membership at DefaultReplicas. Every other ring test checks agreement
// within one build; this one fails when a change to the vnode keys, the
// hash or the tie-break would re-place instances across versions.
func TestRingOwnersGolden(t *testing.T) {
	const want = "acccabbcbcabbbcabcbbccabbabcbbcbbaabbbcbcabbbbabccbbccacacaacaba"
	r := New([]string{"a", "b", "c"}, 0)
	got := make([]byte, 0, len(want))
	for i := 0; i < 64; i++ {
		got = append(got, r.Owner(fmt.Sprintf("inst-%d", i))...)
	}
	if string(got) != want {
		t.Fatalf("owners of inst-0..inst-63:\n got %s\nwant %s", got, want)
	}
}
