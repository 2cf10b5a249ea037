// Package ft implements the paper's primary contribution: fault-tolerant
// de Bruijn and shuffle-exchange networks with the minimum number of
// spare nodes.
//
// Given a target graph G with N nodes and a fault budget k, the
// constructions produce a host graph G' with exactly N + k nodes that is
// (k, G)-tolerant: for ANY set of at most k node faults, the surviving
// nodes of G' induce a subgraph containing G. The reconfiguration map is
// the rank-based monotone assignment of Section III-A: target node x is
// placed on the (x+1)-st non-faulty host node.
//
// Constructions and their degree bounds (Corollaries 1-4 and Section V):
//
//	B^k_{2,h}  2^h + k nodes   degree <= 4k + 4
//	B^k_{m,h}  m^h + k nodes   degree <= 4(m-1)k + 2m
//	FT SE_h (via de Bruijn embedding)   degree <= 4k + 4
//	FT SE_h (natural labeling)          degree <= 6k + 6 measured
//	                                    (paper states 6k + 4; see DegreeBoundNatural)
//	bus implementation                   bus-degree <= 2k + 3
package ft

import (
	"fmt"

	"ftnet/internal/debruijn"
	"ftnet/internal/num"
)

// Params identifies a fault-tolerant de Bruijn graph B^k_{m,h}.
type Params struct {
	M int // base, >= 2
	H int // digits, >= 3 (the paper's theorems assume h >= 3)
	K int // number of tolerated node faults, >= 0
}

// Validate reports whether the parameters satisfy the paper's
// preconditions (m >= 2, h >= 3, k >= 0) and fit in an int.
func (p Params) Validate() error {
	if p.M < 2 {
		return fmt.Errorf("ft: base m=%d must be >= 2", p.M)
	}
	if p.H < 3 {
		return fmt.Errorf("ft: digits h=%d must be >= 3 (paper precondition)", p.H)
	}
	if p.K < 0 {
		return fmt.Errorf("ft: fault budget k=%d must be >= 0", p.K)
	}
	n, err := num.IPow(p.M, p.H)
	if err != nil {
		return fmt.Errorf("ft: graph too large: %v", err)
	}
	if n+p.K < n {
		return fmt.Errorf("ft: m^h + k overflows int")
	}
	return nil
}

// Target returns the parameters of the target de Bruijn graph B_{m,h}.
func (p Params) Target() debruijn.Params { return debruijn.Params{M: p.M, H: p.H} }

// NTarget returns the target node count m^h.
func (p Params) NTarget() int { return num.MustIPow(p.M, p.H) }

// NHost returns the host node count m^h + k — the paper's minimum
// possible for tolerating k faults.
func (p Params) NHost() int { return p.NTarget() + p.K }

// RMin returns the smallest r in the host edge rule,
// (m-1)(-k); for m=2 this is -k.
func (p Params) RMin() int { return (p.M - 1) * (-p.K) }

// RMax returns the largest r in the host edge rule,
// (m-1)(k+1); for m=2 this is k+1.
func (p Params) RMax() int { return (p.M - 1) * (p.K + 1) }

// DegreeBound returns the paper's degree bound for B^k_{m,h}:
// 4(m-1)k + 2m (Corollary 3); for m=2 it reduces to 4k+4 (Corollary 1).
func (p Params) DegreeBound() int { return 4*(p.M-1)*p.K + 2*p.M }

// String returns the paper's notation B^k_{m,h}.
func (p Params) String() string { return fmt.Sprintf("B^%d_{%d,%d}", p.K, p.M, p.H) }
