package ft

import (
	"math/rand"
	"testing"

	"ftnet/internal/graph"
	"ftnet/internal/num"
	"ftnet/internal/shuffle"
)

func TestSEParams(t *testing.T) {
	p := SEParams{H: 4, K: 2}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NTarget() != 16 || p.NHost() != 18 {
		t.Errorf("sizes %d %d", p.NTarget(), p.NHost())
	}
	if p.DegreeBoundViaDB() != 12 {
		t.Errorf("via-dB bound %d", p.DegreeBoundViaDB())
	}
	if p.DegreeBoundNatural() != 18 {
		t.Errorf("natural bound %d", p.DegreeBoundNatural())
	}
	if p.String() != "FTSE^2_4" {
		t.Errorf("String = %q", p.String())
	}
	if (SEParams{H: 2, K: 0}).Validate() == nil {
		t.Error("h=2 should be invalid")
	}
}

func TestSEViaDBToleratesRandomFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for h := 3; h <= 6; h++ {
		for k := 0; k <= 4; k++ {
			p := SEParams{H: h, K: k}
			host, psi, err := NewSEViaDB(p)
			if err != nil {
				t.Fatal(err)
			}
			if host.MaxDegree() > p.DegreeBoundViaDB() {
				t.Errorf("%v: host degree %d > %d", p, host.MaxDegree(), p.DegreeBoundViaDB())
			}
			se := shuffle.MustNew(shuffle.Params{H: h})
			for trial := 0; trial < 10; trial++ {
				faults := num.RandomSubset(rng, p.NHost(), k)
				phi, err := SEMapViaDB(p, psi, faults)
				if err != nil {
					t.Fatal(err)
				}
				if err := graph.CheckEmbedding(se, host, phi); err != nil {
					t.Fatalf("%v faults=%v: %v", p, faults, err)
				}
				// Faulty nodes must not host anything.
				for _, f := range faults {
					for _, img := range phi {
						if img == f {
							t.Fatalf("%v: faulty node %d hosts an SE node", p, f)
						}
					}
				}
			}
		}
	}
}

func TestSEViaDBExhaustiveSmall(t *testing.T) {
	// Every 1-fault and 2-fault pattern for SE_3.
	for k := 1; k <= 2; k++ {
		p := SEParams{H: 3, K: k}
		host, psi, err := NewSEViaDB(p)
		if err != nil {
			t.Fatal(err)
		}
		se := shuffle.MustNew(shuffle.Params{H: 3})
		faults := make([]int, k)
		num.Combinations(p.NHost(), k, func(subset []int) bool {
			copy(faults, subset)
			phi, err := SEMapViaDB(p, psi, faults)
			if err != nil {
				t.Fatalf("faults=%v: %v", faults, err)
			}
			if err := graph.CheckEmbedding(se, host, phi); err != nil {
				t.Fatalf("faults=%v: %v", faults, err)
			}
			return true
		})
	}
}

func TestSENaturalToleratesRandomFaults(t *testing.T) {
	// Under the natural labeling, SE node x maps directly through phi.
	rng := rand.New(rand.NewSource(7))
	for h := 3; h <= 6; h++ {
		for k := 0; k <= 4; k++ {
			p := SEParams{H: h, K: k}
			host, err := NewSENatural(p)
			if err != nil {
				t.Fatal(err)
			}
			se := shuffle.MustNew(shuffle.Params{H: h})
			for trial := 0; trial < 10; trial++ {
				faults := num.RandomSubset(rng, p.NHost(), k)
				mp, err := NewMapping(p.NTarget(), p.NHost(), faults)
				if err != nil {
					t.Fatal(err)
				}
				if err := graph.CheckEmbedding(se, host, mp.PhiSlice()); err != nil {
					t.Fatalf("%v faults=%v: %v", p, faults, err)
				}
			}
		}
	}
}

func TestSENaturalExhaustiveSmall(t *testing.T) {
	for k := 1; k <= 2; k++ {
		p := SEParams{H: 3, K: k}
		host, err := NewSENatural(p)
		if err != nil {
			t.Fatal(err)
		}
		se := shuffle.MustNew(shuffle.Params{H: 3})
		faults := make([]int, k)
		num.Combinations(p.NHost(), k, func(subset []int) bool {
			copy(faults, subset)
			mp, err := NewMapping(p.NTarget(), p.NHost(), faults)
			if err != nil {
				t.Fatalf("faults=%v: %v", faults, err)
			}
			if err := graph.CheckEmbedding(se, host, mp.PhiSlice()); err != nil {
				t.Fatalf("faults=%v: %v", faults, err)
			}
			return true
		})
	}
}

func TestSENaturalDegree(t *testing.T) {
	// Measured degree must stay within our provable 6k+6 bound; record
	// how it compares to the paper's stated 6k+4 (see DegreeBoundNatural).
	for h := 3; h <= 7; h++ {
		for k := 0; k <= 4; k++ {
			p := SEParams{H: h, K: k}
			host, err := NewSENatural(p)
			if err != nil {
				t.Fatal(err)
			}
			d := host.MaxDegree()
			if d > p.DegreeBoundNatural() {
				t.Errorf("%v: degree %d > 6k+6 = %d", p, d, p.DegreeBoundNatural())
			}
			t.Logf("%v: natural degree measured %d (paper claims 6k+4 = %d)", p, d, 6*k+4)
		}
	}
}

func TestSENaturalDegreeSmallerThanTwoFTdB(t *testing.T) {
	// Sanity: the natural construction must not cost more than building
	// the band on top of the dB host, i.e. union is bounded by sum.
	p := SEParams{H: 5, K: 3}
	host, err := NewSENatural(p)
	if err != nil {
		t.Fatal(err)
	}
	db := MustNew(p.DB())
	if host.MaxDegree() > db.MaxDegree()+2*(p.K+1) {
		t.Errorf("degree %d exceeds dB %d + band %d", host.MaxDegree(), db.MaxDegree(), 2*(p.K+1))
	}
}

func TestSEMapViaDBErrors(t *testing.T) {
	p := SEParams{H: 3, K: 1}
	if _, err := SEMapViaDB(p, []int{0, 1}, nil); err == nil {
		t.Error("short psi should error")
	}
	_, psi, err := NewSEViaDB(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SEMapViaDB(p, psi, []int{1, 2}); err == nil {
		t.Error("too many faults should error")
	}
}

func TestNewSEInvalidParams(t *testing.T) {
	if _, _, err := NewSEViaDB(SEParams{H: 0, K: 1}); err == nil {
		t.Error("invalid params accepted by NewSEViaDB")
	}
	if _, err := NewSENatural(SEParams{H: 0, K: 1}); err == nil {
		t.Error("invalid params accepted by NewSENatural")
	}
}
