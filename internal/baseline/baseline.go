// Package baseline implements the Samatham–Pradhan style fault-tolerant
// de Bruijn scheme ([12] in the paper) that the paper's Section I
// comparison is made against.
//
// Samatham and Pradhan tolerate k faults in a target B_{m,h} by taking a
// LARGER de Bruijn graph as the host. The paper cites their costs as
//
//	base 2:  N^{log2 2(k+1)} nodes, degree 4k+2
//	base m:  N^{log_m m(k+1)} nodes, degree 2mk+2
//
// Both node counts equal (m(k+1))^h: the host realized here is the
// de Bruijn graph over the enlarged alphabet of m(k+1) symbols,
// B_{m(k+1), h}. The alphabet splits into k+1 disjoint blocks of m
// symbols; the strings confined to one block form a node-disjoint copy
// of B_{m,h}, so k node faults can touch at most k of the k+1 copies
// and one copy always survives. That realizes the same
// fewer-graph-nodes/degree trade the paper quotes, with an executable
// reconfiguration: pick a surviving copy.
//
// The contrast with package ft is the entire point of the paper:
// ft needs only N + k nodes (optimal), at a degree only slightly larger.
//
// Kept because it backs tracked experiment T5
// (BenchmarkT5_BaselineComparison in the root bench_test.go), its only
// importer.
package baseline

import (
	"fmt"

	"ftnet/internal/debruijn"
	"ftnet/internal/graph"
	"ftnet/internal/num"
)

// Params identifies a Samatham–Pradhan fault-tolerant de Bruijn scheme.
type Params struct {
	M int // target base, >= 2
	H int // digits, >= 1
	K int // fault budget, >= 0
}

// Validate checks constructibility (including host size overflow).
func (p Params) Validate() error {
	if p.M < 2 {
		return fmt.Errorf("baseline: base m=%d must be >= 2", p.M)
	}
	if p.H < 1 {
		return fmt.Errorf("baseline: digits h=%d must be >= 1", p.H)
	}
	if p.K < 0 {
		return fmt.Errorf("baseline: faults k=%d must be >= 0", p.K)
	}
	if _, err := num.IPow(p.M*(p.K+1), p.H); err != nil {
		return fmt.Errorf("baseline: host too large: %v", err)
	}
	return nil
}

// HostBase returns the enlarged alphabet size m(k+1).
func (p Params) HostBase() int { return p.M * (p.K + 1) }

// NTarget returns m^h.
func (p Params) NTarget() int { return num.MustIPow(p.M, p.H) }

// NHost returns the host node count (m(k+1))^h — the N^{log_m m(k+1)}
// of the paper's comparison.
func (p Params) NHost() int { return num.MustIPow(p.HostBase(), p.H) }

// CitedDegree returns the degree the paper cites for Samatham–Pradhan:
// 2mk + 2 for base m (4k+2 for base 2).
func (p Params) CitedDegree() int { return 2*p.M*p.K + 2 }

// HostDegree returns the degree of the concrete host built here,
// 2·m(k+1) (a full de Bruijn graph over the enlarged alphabet). The
// original construction prunes edges the reconfiguration never uses to
// reach the cited 2mk+2; both are Theta(mk), which is what the
// comparison tables report.
func (p Params) HostDegree() int { return 2 * p.HostBase() }

// String describes the scheme.
func (p Params) String() string {
	return fmt.Sprintf("SP^%d_{%d,%d}", p.K, p.M, p.H)
}

// New builds the concrete host graph B_{m(k+1), h}.
func New(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return debruijn.New(debruijn.Params{M: p.HostBase(), H: p.H})
}

// MustNew is New that panics on error.
func MustNew(p Params) *graph.Graph {
	g, err := New(p)
	if err != nil {
		panic(err)
	}
	return g
}

// CopyNodes returns the host nodes of copy i (0 <= i <= k): the strings
// whose every digit lies in alphabet block i, in target order. Copy
// node order matches target node order, so CopyNodes(p, i)[x] hosts
// target node x.
func CopyNodes(p Params, i int) ([]int, error) {
	if i < 0 || i > p.K {
		return nil, fmt.Errorf("baseline: copy %d out of range [0,%d]", i, p.K)
	}
	nt := p.NTarget()
	hb := p.HostBase()
	out := make([]int, nt)
	for x := 0; x < nt; x++ {
		d := num.MustToDigits(x, p.M, p.H)
		v := 0
		for _, digit := range d.D {
			v = v*hb + (digit + i*p.M)
		}
		out[x] = v
	}
	return out, nil
}

// Reconfigure finds a copy untouched by the fault set and returns the
// embedding of the target into it: phi[x] = host node for target x.
// It fails only if every copy is hit, which requires more than k faults.
func Reconfigure(p Params, faults []int) ([]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bad := make(map[int]bool, len(faults))
	for _, f := range faults {
		if f < 0 || f >= p.NHost() {
			return nil, fmt.Errorf("baseline: fault %d out of range [0,%d)", f, p.NHost())
		}
		bad[f] = true
	}
	for i := 0; i <= p.K; i++ {
		nodes, err := CopyNodes(p, i)
		if err != nil {
			return nil, err
		}
		hit := false
		for _, v := range nodes {
			if bad[v] {
				hit = true
				break
			}
		}
		if !hit {
			return nodes, nil
		}
	}
	return nil, fmt.Errorf("baseline: all %d copies hit by faults (need > %d faults)", p.K+1, p.K)
}
