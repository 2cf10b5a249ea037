// Package hypercube provides the comparison topologies from the paper's
// introduction: the hypercube Q_d (whose degree grows with machine size,
// the problem motivating constant-degree networks) and the
// cube-connected cycles CCC_d of Preparata–Vuillemin (ref [11], the
// other constant-degree alternative the paper names alongside
// shuffle-exchange and de Bruijn).
//
// These exist to reproduce the intro's argument quantitatively: degree
// tables across machine sizes, and Ascend-class workload costs on each
// topology (hypercube: h cycles; shuffle-exchange emulation: 2h cycles —
// the "small constant factor slowdown").
//
// Kept because it backs tracked experiment M1
// (BenchmarkM1_TopologyComparison in the root bench_test.go), its only
// importer.
package hypercube

import (
	"fmt"

	"ftnet/internal/graph"
	"ftnet/internal/num"
)

// New returns the hypercube Q_d: 2^d nodes, node x adjacent to x^(2^i)
// for every dimension i. Degree is exactly d.
func New(d int) (*graph.Graph, error) {
	if d < 1 {
		return nil, fmt.Errorf("hypercube: dimension d=%d must be >= 1", d)
	}
	n, err := num.IPow(2, d)
	if err != nil {
		return nil, fmt.Errorf("hypercube: %v", err)
	}
	b := graph.NewBuilder(n)
	for x := 0; x < n; x++ {
		for i := 0; i < d; i++ {
			b.AddEdge(x, x^(1<<i))
		}
	}
	return b.Build(), nil
}

// MustNew is New that panics on error.
func MustNew(d int) *graph.Graph {
	g, err := New(d)
	if err != nil {
		panic(err)
	}
	return g
}

// CCCNode identifies a cube-connected cycles node: cube position w
// (a d-bit corner) and cycle position i (which dimension's port).
type CCCNode struct {
	W int // hypercube corner, 0 <= W < 2^d
	I int // position on the corner's cycle, 0 <= I < d
}

// CCCIndex flattens a CCCNode to an integer id: w*d + i.
func CCCIndex(n CCCNode, d int) int { return n.W*d + n.I }

// CCCNodeOf inverts CCCIndex.
func CCCNodeOf(id, d int) CCCNode { return CCCNode{W: id / d, I: id % d} }

// NewCCC returns the cube-connected cycles network CCC_d: each hypercube
// corner is replaced by a d-cycle, position i of corner w connects to
// position i of corner w^(2^i) (the "cube" edge) plus its two cycle
// neighbors. Degree 3 for d >= 3.
func NewCCC(d int) (*graph.Graph, error) {
	if d < 1 {
		return nil, fmt.Errorf("hypercube: CCC dimension d=%d must be >= 1", d)
	}
	corners, err := num.IPow(2, d)
	if err != nil {
		return nil, fmt.Errorf("hypercube: %v", err)
	}
	b := graph.NewBuilder(corners * d)
	for w := 0; w < corners; w++ {
		for i := 0; i < d; i++ {
			id := CCCIndex(CCCNode{W: w, I: i}, d)
			// Cycle edges (self-loops for d=1, multi-edge for d=2 are
			// collapsed by the builder).
			b.AddEdge(id, CCCIndex(CCCNode{W: w, I: (i + 1) % d}, d))
			// Cube edge along dimension i.
			b.AddEdge(id, CCCIndex(CCCNode{W: w ^ (1 << i), I: i}, d))
		}
	}
	return b.Build(), nil
}

// MustNewCCC is NewCCC that panics on error.
func MustNewCCC(d int) *graph.Graph {
	g, err := NewCCC(d)
	if err != nil {
		panic(err)
	}
	return g
}

// AscendCycles returns the communication cycles an Ascend-class sweep
// costs on each topology for a 2^h-node logical problem, per the
// standard emulations: hypercube h (one dimension per cycle),
// de Bruijn h (one shift per cycle), shuffle-exchange 2h
// (shuffle + exchange per dimension), CCC 2h + O(h) (cycle rotation
// interleaved with cube edges; we report the 2h lower-order term plus h
// for the initial alignment, the textbook 3h bound).
type AscendCycles struct {
	Hypercube       int
	DeBruijn        int
	ShuffleExchange int
	CCC             int
}

// AscendCost returns the cycle counts for problem size 2^h.
func AscendCost(h int) AscendCycles {
	return AscendCycles{
		Hypercube:       h,
		DeBruijn:        h,
		ShuffleExchange: 2 * h,
		CCC:             3 * h,
	}
}

// RunAscendSum executes the hypercube-native Ascend global-sum directly
// on Q_d (each round every node combines with its dimension-i neighbor)
// and returns the per-node results and rounds used. It is the reference
// the shuffle-exchange emulation in package ascend is measured against.
func RunAscendSum(d int, vals []int64) ([]int64, int, error) {
	n, err := num.IPow(2, d)
	if err != nil || len(vals) != n {
		return nil, 0, fmt.Errorf("hypercube: need 2^%d values, got %d", d, len(vals))
	}
	data := make([]int64, n)
	copy(data, vals)
	for i := 0; i < d; i++ {
		bit := 1 << i
		for x := 0; x < n; x++ {
			if x&bit == 0 {
				s := data[x] + data[x^bit]
				data[x], data[x^bit] = s, s
			}
		}
	}
	return data, d, nil
}
