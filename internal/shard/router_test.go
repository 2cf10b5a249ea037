package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func testPeers(names ...string) map[string]string {
	peers := make(map[string]string, len(names))
	for _, n := range names {
		peers[n] = "http://" + n + ".example:8100"
	}
	return peers
}

// idsOwnedBy returns n probe ids the router's ring gives member.
func idsOwnedBy(t *testing.T, r *Router, member string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; len(ids) < n; i++ {
		if i > 64*n+4096 {
			t.Fatalf("only %d of %d probe ids owned by %q", len(ids), n, member)
		}
		if id := fmt.Sprintf("inst-%d", i); r.Ring().Owner(id) == member {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestRouterLearn is the override policy, one row per rule: which
// hints are followed, what is remembered, and when an exception ends.
func TestRouterLearn(t *testing.T) {
	peers := testPeers("a", "b", "c")
	for _, tc := range []struct {
		name       string
		prior      string // member id is already overridden to ("" = none)
		hint       string
		refusedBy  string
		wantMember string
		wantFollow bool
		wantOwner  string // Owner and OwnerBytes afterwards
		wantCount  int    // Overrides afterwards
	}{
		{name: "foreign hint: not followed, nothing cached",
			hint: "http://evil.example:8100", refusedBy: "a", wantOwner: "a"},
		{name: "empty hint: not followed, nothing cached",
			hint: "", refusedBy: "a", wantOwner: "a"},
		{name: "hint naming the member that just refused: not followed",
			hint: peers["a"], refusedBy: "a", wantOwner: "a"},
		{name: "configured peer: followed and cached",
			hint: peers["b"], refusedBy: "a", wantMember: "b", wantFollow: true, wantOwner: "b", wantCount: 1},
		{name: "a newer hint replaces the override",
			prior: "b", hint: peers["c"], refusedBy: "b", wantMember: "c", wantFollow: true, wantOwner: "c", wantCount: 1},
		{name: "hint that agrees with the ring ends the exception",
			prior: "b", hint: peers["a"], refusedBy: "b", wantMember: "a", wantFollow: true, wantOwner: "a"},
		{name: "unfollowable hint leaves an existing override alone",
			prior: "b", hint: "http://evil.example:8100", refusedBy: "b", wantOwner: "b", wantCount: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRouter(peers, 0)
			id := idsOwnedBy(t, r, "a", 1)[0]
			if tc.prior != "" {
				if _, ok := r.Learn(id, peers[tc.prior], "a"); !ok {
					t.Fatal("setting up the prior override failed")
				}
			}
			member, follow := r.Learn(id, tc.hint, tc.refusedBy)
			if member != tc.wantMember || follow != tc.wantFollow {
				t.Fatalf("Learn = (%q, %v), want (%q, %v)", member, follow, tc.wantMember, tc.wantFollow)
			}
			if got := r.Owner(id); got != tc.wantOwner {
				t.Errorf("Owner = %q, want %q", got, tc.wantOwner)
			}
			if got := r.OwnerBytes([]byte(id)); got != tc.wantOwner {
				t.Errorf("OwnerBytes = %q, want %q", got, tc.wantOwner)
			}
			if got := r.Overrides(); got != tc.wantCount {
				t.Errorf("Overrides = %d, want %d", got, tc.wantCount)
			}
		})
	}
}

// TestRouterOverridesBounded: the table is fed by responses from the
// network, so it must not grow without bound — and at the cap it must
// keep learning, since an evicted entry only costs one more bounce.
func TestRouterOverridesBounded(t *testing.T) {
	peers := testPeers("a", "b")
	r := NewRouter(peers, 0)
	other := map[string]string{"a": "b", "b": "a"}
	learn := func(id string) {
		t.Helper()
		owner := r.Ring().Owner(id)
		if member, ok := r.Learn(id, peers[other[owner]], owner); !ok || member != other[owner] {
			t.Fatalf("Learn(%s) = (%q, %v)", id, member, ok)
		}
	}
	for i := 0; i < MaxOverrides+64; i++ {
		learn(fmt.Sprintf("ov-%d", i))
	}
	if n := r.Overrides(); n != MaxOverrides {
		t.Fatalf("%d overrides after %d distinct learns, want exactly the cap %d", n, MaxOverrides+64, MaxOverrides)
	}
	learn("ov-fresh")
	if got, want := r.Owner("ov-fresh"), other[r.Ring().Owner("ov-fresh")]; got != want {
		t.Fatalf("a learn at the cap routed to %q, want the hinted %q", got, want)
	}
	if n := r.Overrides(); n != MaxOverrides {
		t.Fatalf("%d overrides after a learn at the cap, want %d", n, MaxOverrides)
	}
}

func TestRouterOwnerFormsAgree(t *testing.T) {
	peers := testPeers("a", "b", "c")
	r := NewRouter(peers, 0)
	rng := rand.New(rand.NewSource(1))
	keys := keysFrom(rng, 512)
	check := func(when string) {
		t.Helper()
		for _, key := range keys {
			if s, b := r.Owner(key), r.OwnerBytes([]byte(key)); s != b {
				t.Fatalf("%s: Owner(%s) = %q, OwnerBytes = %q", when, key, s, b)
			}
		}
	}
	check("no overrides")
	for _, key := range keys[:128] {
		owner := r.Ring().Owner(key)
		for name, url := range peers {
			if name != owner {
				r.Learn(key, url, owner)
				break
			}
		}
	}
	if r.Overrides() != 128 {
		t.Fatalf("%d overrides, want 128", r.Overrides())
	}
	check("with overrides")
	for _, key := range keys[:128] {
		if r.Owner(key) == r.Ring().Owner(key) {
			t.Fatalf("%s: override not returned", key)
		}
	}
}

func TestRouterOwnerBytesAllocs(t *testing.T) {
	peers := testPeers("a", "b", "c")
	r := NewRouter(peers, 0)
	onRing, moved := []byte("inst-on-the-ring"), []byte("inst-overridden")
	var sink string
	measure := func(state string) {
		t.Helper()
		if n := testing.AllocsPerRun(1000, func() {
			sink = r.OwnerBytes(onRing)
			sink = r.OwnerBytes(moved)
		}); n != 0 {
			t.Fatalf("%s: OwnerBytes allocates %v per pair of calls, want 0", state, n)
		}
	}
	measure("no overrides")
	owner := r.Ring().Owner(string(moved))
	for name, url := range peers {
		if name != owner {
			r.Learn(string(moved), url, owner)
			break
		}
	}
	if r.Overrides() != 1 {
		t.Fatal("override not learned")
	}
	measure("with an override")
	_ = sink
}

// TestRouterConcurrentLearnOwner is for the race detector: readers on
// both id forms while hints arrive, clear and evict.
func TestRouterConcurrentLearnOwner(t *testing.T) {
	peers := testPeers("a", "b", "c")
	r := NewRouter(peers, 0)
	urls := []string{peers["a"], peers["b"], peers["c"], "http://evil.example:8100"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5000; i++ {
				id := fmt.Sprintf("inst-%d", rng.Intn(MaxOverrides+512))
				r.Learn(id, urls[rng.Intn(len(urls))], r.Owner(id))
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 5000; i++ {
				id := fmt.Sprintf("inst-%d", rng.Intn(MaxOverrides+512))
				if _, ok := peers[r.Owner(id)]; !ok {
					t.Errorf("Owner(%s) is not a member", id)
					return
				}
				if _, ok := peers[r.OwnerBytes([]byte(id))]; !ok {
					t.Errorf("OwnerBytes(%s) is not a member", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := r.Overrides(); n > MaxOverrides {
		t.Fatalf("%d overrides, cap is %d", n, MaxOverrides)
	}
}

func TestRouterEmptyRing(t *testing.T) {
	r := NewRouter(nil, 0)
	if got := r.Owner("x"); got != "" {
		t.Errorf("Owner on an empty ring = %q", got)
	}
	if got := r.OwnerBytes([]byte("x")); got != "" {
		t.Errorf("OwnerBytes on an empty ring = %q", got)
	}
	if _, ok := r.Learn("x", "http://a.example:8100", ""); ok {
		t.Error("an empty router followed a hint")
	}
}
