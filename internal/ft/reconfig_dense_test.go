package ft

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ftnet/internal/num"
)

// This file is the equivalence gate for the compact rank-based Mapping:
// a reference implementation that stores the dense sorted healthy array
// (the pre-compaction representation) is compared bit-for-bit against
// the rank-based one — exhaustively over every fault set on small
// instances, by testing/quick over random (nTarget, nHost, fault-set)
// triples, and along full-budget and repair-heavy event sequences
// driven through Snapshot.Apply.

// denseMapping is the reference: the explicit sorted complement of the
// fault set, exactly what Mapping stored before the compact rewrite.
type denseMapping struct {
	nTarget int
	nHost   int
	faults  []int
	healthy []int
}

func newDense(t testing.TB, nTarget, nHost int, faults []int) *denseMapping {
	t.Helper()
	m, err := NewMapping(nTarget, nHost, faults) // canonicalizes + validates
	if err != nil {
		t.Fatalf("NewMapping(%d, %d, %v): %v", nTarget, nHost, faults, err)
	}
	return &denseMapping{
		nTarget: nTarget,
		nHost:   nHost,
		faults:  m.Faults,
		healthy: num.Complement(m.Faults, nHost),
	}
}

func (d *denseMapping) phi(x int) int { return d.healthy[x] }

func (d *denseMapping) phiSlice() []int {
	out := make([]int, d.nTarget)
	copy(out, d.healthy[:d.nTarget])
	return out
}

func (d *denseMapping) hostToTarget() []int {
	inv := make([]int, d.nHost)
	for i := range inv {
		inv[i] = -1
	}
	for x := 0; x < d.nTarget; x++ {
		inv[d.healthy[x]] = x
	}
	return inv
}

// compare checks every accessor of the compact mapping against the
// dense reference, demanding bit-identical output.
func compare(t *testing.T, m *Mapping, d *denseMapping) {
	t.Helper()
	if m.NumHealthy() != len(d.healthy) {
		t.Fatalf("faults %v: NumHealthy = %d, dense %d", m.Faults, m.NumHealthy(), len(d.healthy))
	}
	for x := 0; x < m.NTarget; x++ {
		if got, want := m.Phi(x), d.phi(x); got != want {
			t.Fatalf("faults %v: Phi(%d) = %d, dense %d", m.Faults, x, got, want)
		}
		if got, want := m.Delta(x), d.phi(x)-x; got != want {
			t.Fatalf("faults %v: Delta(%d) = %d, dense %d", m.Faults, x, got, want)
		}
	}
	for i, v := range d.healthy {
		if got := m.HealthyAt(i); got != v {
			t.Fatalf("faults %v: HealthyAt(%d) = %d, dense %d", m.Faults, i, got, v)
		}
	}
	if got := m.PhiSlice(); !reflect.DeepEqual(got, d.phiSlice()) {
		t.Fatalf("faults %v: PhiSlice = %v, dense %v", m.Faults, got, d.phiSlice())
	}
	wantInv := d.hostToTarget()
	if got := m.HostToTarget(); !reflect.DeepEqual(got, wantInv) {
		t.Fatalf("faults %v: HostToTarget = %v, dense %v", m.Faults, got, wantInv)
	}
	for v := 0; v < m.NHost; v++ {
		if got := m.TargetAt(v); got != wantInv[v] {
			t.Fatalf("faults %v: TargetAt(%d) = %d, dense %d", m.Faults, v, got, wantInv[v])
		}
	}
	if got := m.Healthy(); !reflect.DeepEqual(got, d.healthy) {
		t.Fatalf("faults %v: Healthy = %v, dense %v", m.Faults, got, d.healthy)
	}
	// RangePhi and AppendPhi agree with the slice they replace.
	var ranged []int
	m.RangePhi(func(x, phi int) bool {
		if x != len(ranged) {
			t.Fatalf("faults %v: RangePhi index %d out of order (want %d)", m.Faults, x, len(ranged))
		}
		ranged = append(ranged, phi)
		return true
	})
	if m.NTarget > 0 && !reflect.DeepEqual(ranged, d.phiSlice()) {
		t.Fatalf("faults %v: RangePhi = %v, dense %v", m.Faults, ranged, d.phiSlice())
	}
	buf := make([]int, 0, m.NTarget)
	if got := m.AppendPhi(buf); !reflect.DeepEqual(append([]int{}, got...), append([]int{}, d.phiSlice()...)) {
		t.Fatalf("faults %v: AppendPhi = %v, dense %v", m.Faults, got, d.phiSlice())
	}
}

// TestCompactMatchesDenseExhaustive enumerates every fault subset of
// every small (nTarget, spares) shape — the full input space up to the
// size bound, no sampling.
func TestCompactMatchesDenseExhaustive(t *testing.T) {
	for nTarget := 0; nTarget <= 6; nTarget++ {
		for spares := 0; spares <= 3; spares++ {
			nHost := nTarget + spares
			for k := 0; k <= spares; k++ {
				num.Combinations(nHost, k, func(subset []int) bool {
					m, err := NewMapping(nTarget, nHost, subset)
					if err != nil {
						t.Fatalf("NewMapping(%d, %d, %v): %v", nTarget, nHost, subset, err)
					}
					compare(t, m, newDense(t, nTarget, nHost, subset))
					return true
				})
			}
		}
	}
}

// TestCompactMatchesDenseQuick drives random (nTarget, nHost, faults)
// triples through testing/quick, including hosts far larger than the
// exhaustive bound and full-budget fault sets.
func TestCompactMatchesDenseQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(19920415))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nTarget := r.Intn(3000)
		spares := r.Intn(40)
		nHost := nTarget + spares
		k := r.Intn(spares + 1)
		if r.Intn(4) == 0 {
			k = spares // full budget: every spare consumed
		}
		faults := num.RandomSubset(r, nHost, k)
		m, err := NewMapping(nTarget, nHost, faults)
		if err != nil {
			t.Logf("NewMapping(%d, %d, %v): %v", nTarget, nHost, faults, err)
			return false
		}
		compare(t, m, newDense(t, nTarget, nHost, faults))
		return true
	}
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCompactMatchesDenseSequences drives Snapshot.Apply through a
// full-budget fault ramp followed by a repair-heavy drain, comparing
// the published mapping against the dense reference at every epoch —
// the shape a long-lived instance actually produces.
func TestCompactMatchesDenseSequences(t *testing.T) {
	const nTarget, budget = 64, 16
	nHost := nTarget + budget
	rng := rand.New(rand.NewSource(7))

	s, err := NewSnapshot(nTarget, nHost, budget)
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Snapshot) {
		compare(t, s.Mapping(), newDense(t, nTarget, nHost, s.Faults()))
	}
	check(s)

	// Full-budget ramp: fault until every spare is consumed.
	for s.NumFaults() < budget {
		for {
			n := rng.Intn(nHost)
			next, err := s.Apply([]Change{{Node: n}})
			if err != nil {
				continue // double fault; redraw
			}
			s = next
			break
		}
		check(s)
	}
	if s.SparesFree() != 0 {
		t.Fatalf("ramp ended with %d spares free", s.SparesFree())
	}

	// Repair-heavy drain: mostly repairs with occasional re-faults,
	// applied in small batches, down to the zero-fault state.
	for s.NumFaults() > 0 {
		faults := s.Faults()
		batch := []Change{{Node: faults[rng.Intn(len(faults))], Repair: true}}
		if len(faults) >= 3 && rng.Intn(3) == 0 {
			// A mixed batch: two repairs interleaved with one genuinely
			// fresh fault (net -1), so Apply's splice order is
			// equivalence-checked on fault+repair combinations too.
			second := faults[0]
			if batch[0].Node == second {
				second = faults[1]
			}
			fresh := rng.Intn(nHost)
			for num.ContainsSorted(faults, fresh) || fresh == batch[0].Node || fresh == second {
				fresh = rng.Intn(nHost)
			}
			batch = append(batch,
				Change{Node: fresh},
				Change{Node: second, Repair: true})
		}
		next, err := s.Apply(batch)
		if err != nil {
			t.Fatalf("repair batch %v from faults %v: %v", batch, faults, err)
		}
		s = next
		check(s)
	}
	if s.NumFaults() != 0 {
		t.Fatalf("drain ended with %d faults", s.NumFaults())
	}
}
