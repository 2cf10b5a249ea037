package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/shard"
	"ftnet/internal/wire"
)

// script is a fake fleet: every member answers from its own queue of
// outcomes (nil, or exhausted, is success) and the order of calls
// across members is recorded.
type script struct {
	mu      sync.Mutex
	answers map[string][]error
	forever map[string]error // the answer once a member's queue is empty
	calls   []string         // "member.op"
}

type scripted struct {
	s    *script
	name string
}

func (m scripted) next(op string) error {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.s.calls = append(m.s.calls, m.name+"."+op)
	if q := m.s.answers[m.name]; len(q) > 0 {
		m.s.answers[m.name] = q[1:]
		return q[0]
	}
	return m.s.forever[m.name]
}

func (m scripted) Lookup(id string, x int) (int, uint64, error) {
	return x + 1, 7, m.next("lookup")
}

func (m scripted) LookupBatch(id string, xs, phis []int) (uint64, error) {
	for i, x := range xs {
		phis[i] = x + 1
	}
	return 7, m.next("batch")
}

func (m scripted) ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error) {
	return fleet.EventResult{Epoch: 9, Applied: len(events)}, m.next("apply")
}

func peerURL(name string) string { return "http://" + name + ".example:8100" }

func bounce(to string) error  { return fleet.WrongShardError(to, "owned elsewhere") }
func staged() error           { return fmt.Errorf("arriving: %w", fleet.ErrUnavailable) }
func transportFailure() error { return &wire.TransportError{Err: errors.New("connection reset")} }
func repeat(n int, s string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestClientConvergence scripts the one convergence rule, a row per
// clause: what is re-issued, where, how often, and what is final.
func TestClientConvergence(t *testing.T) {
	const id = "inst-0"
	ab := []string{"a", "b"}
	home := shard.New(ab, 0).Owner(id)
	away := "b"
	if home == "b" {
		away = "a"
	}
	for _, tc := range []struct {
		name    string
		members []string // URL "" for "proxy", peerURL otherwise
		grace   time.Duration
		op      string
		answers map[string][]error
		forever map[string]error

		wantCalls     []string
		wantErr       error // matched with errors.Is; nil = success
		wantRedirects uint64
		wantWaits     uint64
		wantOwner     string // router.Owner(id) afterwards
	}{
		{name: "staged window ridden out and counted",
			members: ab, grace: 5 * time.Second, op: "apply",
			answers:   map[string][]error{home: {staged(), staged(), staged()}},
			wantCalls: repeat(4, home+".apply"), wantWaits: 3, wantOwner: home},
		{name: "grace deadline surfaces the refusal",
			members: ab, grace: 10 * time.Millisecond, op: "lookup",
			forever: map[string]error{home: staged()},
			wantErr: fleet.ErrUnavailable, wantOwner: home},
		{name: "redirect followed and learned",
			members: ab, grace: time.Second, op: "apply",
			answers:   map[string][]error{home: {bounce(peerURL(away))}},
			wantCalls: []string{home + ".apply", away + ".apply"}, wantRedirects: 1, wantOwner: away},
		{name: "a bounce right back ends the exception",
			members: ab, grace: time.Second, op: "batch",
			answers:   map[string][]error{home: {bounce(peerURL(away))}, away: {bounce(peerURL(home))}},
			wantCalls: []string{home + ".batch", away + ".batch", home + ".batch"}, wantRedirects: 2, wantOwner: home},
		{name: "endless bounce re-issued at most len(members) times",
			members: ab, grace: time.Second, op: "apply",
			forever:   map[string]error{home: bounce(peerURL(away)), away: bounce(peerURL(home))},
			wantCalls: []string{home + ".apply", away + ".apply", home + ".apply"},
			wantErr:   fleet.ErrWrongShard, wantRedirects: 2, wantOwner: home},
		{name: "unfollowable hint re-issued at the same target",
			members: []string{"proxy"}, grace: time.Second, op: "apply",
			answers:   map[string][]error{"proxy": {bounce(peerURL("c"))}},
			wantCalls: repeat(2, "proxy.apply"), wantRedirects: 1, wantOwner: "proxy"},
		{name: "unfollowable hint re-issued at most len(members) times",
			members: []string{"proxy"}, grace: time.Second, op: "lookup",
			forever:   map[string]error{"proxy": bounce(peerURL("c"))},
			wantCalls: repeat(2, "proxy.lookup"), wantErr: fleet.ErrWrongShard, wantRedirects: 1, wantOwner: "proxy"},
		{name: "foreign hint neither followed nor learned",
			members: ab, grace: time.Second, op: "lookup",
			answers:   map[string][]error{home: {bounce("http://evil.example:8100")}},
			wantCalls: repeat(2, home+".lookup"), wantRedirects: 1, wantOwner: home},
		{name: "ApplyBatch never re-issued after a transport error",
			members: ab, grace: time.Second, op: "apply",
			forever:   map[string]error{home: transportFailure()},
			wantCalls: []string{home + ".apply"}, wantErr: errTransport, wantOwner: home},
		{name: "ApplyBatch never re-issued after a state-machine rejection",
			members: ab, grace: time.Second, op: "apply",
			forever:   map[string]error{home: fleet.ErrBudget},
			wantCalls: []string{home + ".apply"}, wantErr: fleet.ErrConflict, wantOwner: home},
		{name: "not found is final",
			members: ab, grace: time.Second, op: "lookup",
			forever:   map[string]error{home: fleet.ErrNotFound},
			wantCalls: []string{home + ".lookup"}, wantErr: fleet.ErrNotFound, wantOwner: home},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &script{answers: tc.answers, forever: tc.forever}
			peers := make(map[string]string)
			members := make(map[string]Transport)
			for _, name := range tc.members {
				members[name] = scripted{s, name}
				if peers[name] = peerURL(name); name == "proxy" {
					peers[name] = ""
				}
			}
			router := shard.NewRouter(peers, 0)
			c := New(router, members, tc.grace)

			var err error
			switch tc.op {
			case "lookup":
				var phi int
				if phi, _, err = c.Lookup(id, 4); err == nil && phi != 5 {
					t.Errorf("Lookup = %d, want 5", phi)
				}
			case "batch":
				phis := make([]int, 2)
				if _, err = c.LookupBatch(id, []int{1, 2}, phis); err == nil && !reflect.DeepEqual(phis, []int{2, 3}) {
					t.Errorf("LookupBatch = %v, want [2 3]", phis)
				}
			case "apply":
				var res fleet.EventResult
				if res, err = c.ApplyBatch(id, []fleet.Event{{Kind: fleet.EventFault, Node: 1}}); err == nil && res.Epoch != 9 {
					t.Errorf("ApplyBatch = %+v, want epoch 9", res)
				}
			}
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("err = %v, want success", err)
			case tc.wantErr == errTransport:
				if !wire.IsTransport(err) {
					t.Fatalf("err = %v, want the transport failure", err)
				}
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantCalls != nil && !reflect.DeepEqual(s.calls, tc.wantCalls) {
				t.Errorf("calls = %v, want %v", s.calls, tc.wantCalls)
			}
			if got := c.Redirects(); got != tc.wantRedirects {
				t.Errorf("redirects = %d, want %d", got, tc.wantRedirects)
			}
			if tc.wantWaits != 0 && c.StagedWaits() != tc.wantWaits {
				t.Errorf("staged waits = %d, want %d", c.StagedWaits(), tc.wantWaits)
			}
			if tc.wantErr == fleet.ErrUnavailable && c.StagedWaits() == 0 {
				t.Error("the refusal surfaced without a single wait")
			}
			if got := router.Owner(id); got != tc.wantOwner {
				t.Errorf("router sends %s to %q afterwards, want %q", id, got, tc.wantOwner)
			}
		})
	}
}

// errTransport stands for "a *wire.TransportError" in the table above.
var errTransport = errors.New("transport")

// TestClientLearnedRouteIsUsed: what one request learns, the next one
// starts from.
func TestClientLearnedRouteIsUsed(t *testing.T) {
	const id = "inst-0"
	router := shard.NewRouter(map[string]string{"a": peerURL("a"), "b": peerURL("b")}, 0)
	home := router.Owner(id)
	away := map[string]string{"a": "b", "b": "a"}[home]
	s := &script{forever: map[string]error{home: bounce(peerURL(away))}}
	c := New(router, map[string]Transport{"a": scripted{s, "a"}, "b": scripted{s, "b"}}, time.Second)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Lookup(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{home + ".lookup", away + ".lookup", away + ".lookup", away + ".lookup"}
	if !reflect.DeepEqual(s.calls, want) {
		t.Fatalf("calls = %v, want %v", s.calls, want)
	}
}

// TestClientConcurrent is for the race detector: callers sharing one
// client while ownership flips under them.
func TestClientConcurrent(t *testing.T) {
	router := shard.NewRouter(map[string]string{"a": peerURL("a"), "b": peerURL("b")}, 0)
	s := &script{answers: map[string][]error{
		"a": {bounce(peerURL("b")), staged(), bounce(peerURL("b"))},
		"b": {staged(), staged()},
	}}
	c := New(router, map[string]Transport{"a": scripted{s, "a"}, "b": scripted{s, "b"}}, 5*time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("inst-%d", (w+i)%5)
				if _, err := c.ApplyBatch(id, []fleet.Event{{Kind: fleet.EventFault, Node: 0}}); err != nil {
					t.Errorf("ApplyBatch(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Redirects() != 2 || c.StagedWaits() != 3 {
		t.Fatalf("redirects %d, staged waits %d; want 2, 3 (every scripted refusal ridden out once)",
			c.Redirects(), c.StagedWaits())
	}
}
