package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ftnet/internal/ft"
)

func TestManagerRegistry(t *testing.T) {
	m := NewManager(Options{})
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}

	if _, err := m.Create("", spec); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := m.Create("a", Spec{Kind: "nope"}); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := m.Create("a", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("a", spec); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, ok := m.Get("a"); !ok {
		t.Error("Get(a) missed")
	}
	if _, ok := m.Get("b"); ok {
		t.Error("Get(b) hit")
	}
	if _, err := m.Create("b", Spec{Kind: KindShuffle, H: 4, K: 1}); err != nil {
		t.Fatal(err)
	}
	if ids := m.list(); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("list = %v", ids)
	}
	if ok, err := m.Delete("b"); !ok || err != nil {
		t.Errorf("Delete(b) = %v, %v; want true, nil", ok, err)
	}
	if ok, err := m.Delete("b"); ok || err != nil {
		t.Errorf("second Delete(b) = %v, %v; want false, nil", ok, err)
	}
	if st := m.Stats(); st.Instances != 1 {
		t.Errorf("Instances = %d, want 1", st.Instances)
	}
}

func TestManagerEventAndLookup(t *testing.T) {
	m := NewManager(Options{})
	if _, err := m.Event("ghost", Event{EventFault, 0}); err == nil {
		t.Error("event on missing instance accepted")
	}
	if _, err := m.Lookup("ghost", 0); err == nil {
		t.Error("lookup on missing instance accepted")
	}
	if _, err := m.Create("net", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Event("net", Event{EventFault, 3}); err != nil {
		t.Fatal(err)
	}
	phi, err := m.Lookup("net", 3)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 4 {
		t.Errorf("Lookup(net, 3) = %d, want 4", phi)
	}
	if _, err := m.Event("net", Event{EventRepair, 4}); err == nil {
		t.Error("repair of healthy node accepted")
	}
	st := m.Stats()
	if st.Events != 1 || st.Rejected != 1 || st.Lookups != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestManagerEventBatch pins the manager-level burst accounting:
// Events counts individual events, Batches counts transitions, and
// rejections are broken down by cause.
func TestManagerEventBatch(t *testing.T) {
	m := NewManager(Options{})
	if _, err := m.EventBatch("ghost", []Event{{EventFault, 0}}); err == nil {
		t.Error("batch on missing instance accepted")
	}
	if _, err := m.Create("net", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := m.EventBatch("net", []Event{{EventFault, 3}, {EventFault, 11}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.NumFaults != 2 || res.Applied != 2 {
		t.Fatalf("batch result %+v", res)
	}
	if _, err := m.EventBatch("net", []Event{{EventFault, 3}}); err == nil {
		t.Error("double fault accepted")
	}
	if _, err := m.EventBatch("net", []Event{{EventRepair, 3}, {EventFault, 0}, {EventFault, 1}}); err == nil {
		t.Error("over-budget batch accepted")
	}
	st := m.Stats()
	if st.Events != 2 || st.Batches != 1 {
		t.Errorf("events/batches = %d/%d, want 2/1", st.Events, st.Batches)
	}
	want := RejectedStats{Budget: 1, Conflict: 1}
	if st.RejectedBy != want || st.Rejected != 2 {
		t.Errorf("rejected = %d by %+v, want 2 by %+v", st.Rejected, st.RejectedBy, want)
	}
	// The rejected batches left the instance at epoch 1 with both faults.
	in, _ := m.Get("net")
	if info := in.Info(); info.Epoch != 1 || len(info.Faults) != 2 {
		t.Errorf("instance state after rejected batches: %+v", info)
	}
}

// TestManagerRedirectIsNoRejection pins who files a refused burst: a
// write bounced off a fenced or moved copy is a wrong-shard redirect,
// one to a copy deleted under it is neither, and no rejection cause
// counts either of them, on the instance or fleet-wide.
func TestManagerRedirectIsNoRejection(t *testing.T) {
	for p, redirects := range map[phase]uint64{phaseFenced: 1, phaseMoved: 1, phaseGone: 0} {
		m := lifecycleManager(t)
		id := idOwnedBy(t, "b")
		in := copyAt(t, m, id, p)
		m.EventBatch(id, []Event{{EventFault, 0}})
		if st := m.Stats(); st.RejectedBy != (RejectedStats{}) || in.Info().RejectedBy != (RejectedStats{}) || st.Shard.WrongShard != redirects {
			t.Errorf("a write to a %s copy: rejected %+v fleet-wide and %+v on the instance, %d redirects; want none, none and %d",
				phaseNames[p], st.RejectedBy, in.Info().RejectedBy, st.Shard.WrongShard, redirects)
		}
	}
}

// TestManagerStress hits one shared Manager from many goroutines mixing
// creates, fault/repair events, lookups and stats. Run under -race this
// is the subsystem's concurrency proof. Every lookup answer is checked
// against the paper's invariant 0 <= phi(x) - x <= k (Lemma 1), which
// must hold at every epoch regardless of interleaving.
func TestManagerStress(t *testing.T) {
	const (
		workers   = 8
		instances = 4
		opsPerG   = 400
		k         = 6
	)
	m := NewManager(Options{})
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 6, K: k}
	ids := make([]string, instances)
	for i := range ids {
		ids[i] = fmt.Sprintf("net-%d", i)
		if _, err := m.Create(ids[i], spec); err != nil {
			t.Fatal(err)
		}
	}
	nTarget := ft.Params{M: 2, H: 6, K: k}.NTarget()
	nHost := nTarget + k

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsPerG; op++ {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(10) {
				case 0, 1, 2: // post a fault (may be rejected: budget/dup)
					m.Event(id, Event{EventFault, rng.Intn(nHost)})
				case 3, 4: // post a repair (may be rejected: healthy)
					m.Event(id, Event{EventRepair, rng.Intn(nHost)})
				case 9: // post an atomic burst (may be rejected whole)
					m.EventBatch(id, []Event{
						{EventFault, rng.Intn(nHost)},
						{EventFault, rng.Intn(nHost)},
					})
				case 5:
					m.Stats()
					if in, ok := m.Get(id); ok {
						in.Info()
					}
				default:
					x := rng.Intn(nTarget)
					phi, err := m.Lookup(id, x)
					if err != nil {
						t.Errorf("Lookup(%s, %d): %v", id, x, err)
						return
					}
					if d := phi - x; d < 0 || d > k {
						t.Errorf("Lookup(%s, %d) = %d: displacement %d outside [0,%d]",
							id, x, phi, d, k)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()

	st := m.Stats()
	if st.Instances != instances {
		t.Errorf("Instances = %d, want %d", st.Instances, instances)
	}
	if st.Events == 0 || st.Lookups == 0 {
		t.Errorf("stress applied no work: %+v", st)
	}
	// Final state of every instance must equal a one-shot recompute.
	for _, id := range ids {
		in, _ := m.Get(id)
		checkPhi(t, spec, in.Info().Faults, in.Lookup)
	}
}

// TestManagerSurface pins Manager's exported methods to the ones called
// from outside fleet, each beside its caller. A method whose last outside
// caller goes is unexported, and a new one is added here with its caller.
func TestManagerSurface(t *testing.T) {
	want := []string{
		"Close",            // benchmark/sut.go
		"CommitRound",      // wire.Server
		"Compact",          // the facade: FleetCompactStats
		"Create",           // benchmark/sut.go, README's quickstart
		"Delete",           // the facade: FleetManager, Create's one inverse
		"Event",            // README's quickstart
		"EventBatch",       // the facade: FleetManager, README's fleet line
		"EventBatchBytes",  // benchmark/sut.go
		"Get",              // the facade: FleetManager
		"GetBytes",         // benchmark/sut.go
		"Lookup",           // README's quickstart, the facade: FleetManager
		"LookupBatchBytes", // wire.Server, benchmark/sut.go
		"LookupEpochBytes", // wire.Server, benchmark/sut.go
		"Metrics",          // cmd/ftnetd, benchmark/sut.go
		"NextSeq",          // benchmark/sut.go
		"Promote",          // cmd/ftnetd's SIGUSR1
		"Recover",          // the facade: FleetJournal
		"RecoverFile",      // benchmark/sut.go
		"SetJournal",       // the facade: OpenFleetJournal
		"SetTopology",      // benchmark/sut.go
		"StageBatchBytes",  // wire.Server
		"Stats",            // benchmark/sut.go
		"Subscribe",        // benchmark/sut.go
	}
	typ := reflect.TypeFor[*Manager]()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Manager exports %d methods %v, want the %d with an outside caller %v", len(got), got, len(want), want)
	}
}
