package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ftnet/internal/journal"
)

// Scale benchmarks for the compact rank-based mapping representation:
// Apply (the write path: atomic burst -> next snapshot, its mapping
// built in place) and Lookup (the read path: pointer load + rank
// search) swept over host sizes 2^10 .. 2^20 — about 10^3 to 10^6
// nodes. The acceptance criterion is in the allocs/op column: both
// paths must be flat in nHost, which TestApplyAllocsIndependentOfN
// (below) and the CI bench check (cmd/ftbenchjson -check) enforce.
//
//	go test ./internal/fleet -bench Scale -benchtime 100x -benchmem

const scaleK = 16

var scaleSizes = []int{10, 14, 17, 20} // h: nTarget = 2^h, nHost = 2^h + k

func scaleInstance(b testing.TB, h int) *Instance {
	b.Helper()
	in, err := newInstance(fmt.Sprintf("scale-h%d", h),
		Spec{Kind: KindDeBruijn, M: 2, H: h, K: scaleK}, newPipeline())
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// applyScalePair returns the steady-state transition pair: a 4-event
// rack burst and its repair, the recurring pattern that exercises the
// snapshot derivation in both directions.
func applyScalePair() (fault, repair []Event) {
	for n := 0; n < 4; n++ {
		fault = append(fault, Event{Kind: EventFault, Node: n})
		repair = append(repair, Event{Kind: EventRepair, Node: n})
	}
	return fault, repair
}

func BenchmarkApplyScale(b *testing.B) {
	for _, h := range scaleSizes {
		b.Run(fmt.Sprintf("n=%d", 1<<h), func(b *testing.B) {
			in := scaleInstance(b, h)
			fault, repair := applyScalePair()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := fault
				if i%2 == 1 {
					batch = repair
				}
				if _, err := in.ApplyBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			// Leave the instance balanced so b.N parity cannot leak
			// fault state into a rerun of the same sub-benchmark.
			if in.Snapshot().NumFaults() > 0 {
				if _, err := in.ApplyBatch(repair); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLookupScale(b *testing.B) {
	for _, h := range scaleSizes {
		b.Run(fmt.Sprintf("n=%d", 1<<h), func(b *testing.B) {
			in := scaleInstance(b, h)
			fault, _ := applyScalePair()
			if _, err := in.ApplyBatch(fault); err != nil {
				b.Fatal(err)
			}
			mask := 1<<h - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if phi, err := in.Lookup(i & mask); err != nil || phi < 0 {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestApplyAllocsIndependentOfN is the acceptance guard for the
// compact representation: per-transition allocation counts must not
// grow with the host size. It measures steady-state ApplyBatch
// allocations at 2^10 and at 2^20 and fails if the million-node
// instance allocates more than marginally above the thousand-node one
// (the +1 headroom tolerates map/GC jitter, not an O(n) slice).
func TestApplyAllocsIndependentOfN(t *testing.T) {
	allocsAt := func(h int) float64 {
		in := scaleInstance(t, h)
		fault, repair := applyScalePair()
		pair := func() {
			if _, err := in.ApplyBatch(fault); err != nil {
				t.Fatal(err)
			}
			if _, err := in.ApplyBatch(repair); err != nil {
				t.Fatal(err)
			}
		}
		pair() // warm the commit log's tail: steady state, not first touch
		return testing.AllocsPerRun(50, pair) / 2
	}
	small := allocsAt(10)
	large := allocsAt(20)
	t.Logf("ApplyBatch allocs/op: %.1f at n=2^10, %.1f at n=2^20", small, large)
	if large > small+1 {
		t.Errorf("Apply allocations scale with nHost: %.1f at 2^20 vs %.1f at 2^10", large, small)
	}
}

// TestLookupAllocFree pins the read path at the largest swept size:
// zero allocations per lookup on a million-node instance.
func TestLookupAllocFree(t *testing.T) {
	in := scaleInstance(t, 20)
	fault, _ := applyScalePair()
	if _, err := in.ApplyBatch(fault); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := in.Lookup(1<<20 - 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocates %.1f objects per call on a 2^20 instance, want 0", allocs)
	}
}

// replayJournal frames an in-memory journal of exactly `records`
// records: one create per instance, then transitions dealt round-robin,
// each carrying the whole fault set after it. The rack shape holds 1 to
// 8 faults 40 apart, the first set the largest (so every buffer replay
// reuses reaches its size at once), and every delta after a set's first
// is a one-byte uvarint. The uniform shape is a mixed-storm journal's:
// 8 faults drawn at random from the host, whose deltas are one- and
// two-byte uvarints in no order the decode can predict.
func replayJournal(tb testing.TB, instances, records int, uniform bool) []byte {
	tb.Helper()
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 12, K: scaleK}
	_, nHost := spec.Sizes()
	rng := rand.New(rand.NewSource(1))
	recs := make([]journal.Record, 0, records)
	for i := 0; i < instances; i++ {
		recs = append(recs, journal.Record{Op: journal.OpCreate, ID: fmt.Sprintf("scale-%03d", i), Spec: journalSpec(spec)})
	}
	for n := 0; len(recs) < records; n++ {
		i, epoch := n%instances, n/instances+1
		var faults []int
		if uniform {
			for len(faults) < 8 {
				if f := rng.Intn(nHost); !slices.Contains(faults, f) {
					faults = append(faults, f)
				}
			}
			slices.Sort(faults)
		} else {
			faults = make([]int, 8-(epoch-1)%8)
			for j := range faults {
				faults[j] = (i*131+epoch*17)%3000 + j*40
			}
		}
		recs = append(recs, journal.Record{Op: journal.OpTransition, ID: recs[i].ID,
			Epoch: uint64(epoch), Applied: 1, Faults: faults})
	}
	return encodeJournal(tb, recs...)
}

// BenchmarkRecoverScale is the restart path: one op replays a whole
// journal of n records over 256 instances into a fresh manager. Replay
// verifies every record and builds one snapshot per instance, so
// allocs/op is flat in n (the CI -check) and ns/record is the figure to
// read. The n=... rows replay the rack shape; uniform/n=16384 replays
// the mixed-storm one at the middle size, where the fault-set decode
// is no longer well predicted.
//
//	go test ./internal/fleet -bench RecoverScale -benchtime 200x -benchmem
func BenchmarkRecoverScale(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		uniform bool
	}{{"n=1024", 1024, false}, {"n=16384", 16384, false}, {"n=131072", 131072, false}, {"uniform/n=16384", 16384, true}} {
		b.Run(c.name, func(b *testing.B) {
			raw := replayJournal(b, 256, c.n, c.uniform)
			rd := bytes.NewReader(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := NewManager(Options{})
				rd.Reset(raw)
				b.StartTimer()
				if st, err := m.Recover(rd); err != nil || st.Records != c.n {
					b.Fatalf("recovered %d of %d records: %v", st.Records, c.n, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/record")
		})
	}
}

// TestRecoverAllocsPerRecord is the guard on the fold: replaying 20,000
// transitions over 16 instances allocates per instance, not per record
// (the eager replay it replaced cost 7 objects a record).
func TestRecoverAllocsPerRecord(t *testing.T) {
	const instances, transitions = 16, 20000
	raw := replayJournal(t, instances, instances+transitions, false)
	rd := bytes.NewReader(raw)
	allocs := testing.AllocsPerRun(5, func() {
		rd.Reset(raw)
		st, err := NewManager(Options{}).Recover(rd)
		if err != nil || st.Transitions != transitions || st.Built != instances {
			t.Fatalf("recover: %+v, %v", st, err)
		}
	})
	if perRecord := allocs / transitions; perRecord >= 0.05 {
		t.Fatalf("replay allocates %.3f objects per transition record (%.0f in all), want < 0.05", perRecord, allocs)
	} else {
		t.Logf("%.4f allocations per transition record (%.0f per replay)", perRecord, allocs)
	}
}
