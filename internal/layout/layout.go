// Package layout provides a simple linear-placement wiring model for
// comparing the point-to-point and bus implementations of the
// fault-tolerant networks. Section V of the paper notes that the real
// cost of a bus depends on its capacitance, i.e. its physical extent,
// and declares the geometry "beyond the scope of this paper"; this
// package makes the obvious first-order model executable:
//
//   - processors sit at integer positions 0..n-1 on a line;
//   - a point-to-point link (u, v) is a wire of length |u - v|
//     (wrap-around links may optionally use the cyclic distance,
//     modeling a ring placement);
//   - a bus is one wire spanning all its members (and its owner).
//
// The interesting outputs are the wire COUNT (pin/area pressure — where
// buses win by construction) and the maximum single-wire length
// (capacitance pressure — where buses pay, because a block spans 2k+2
// consecutive positions but its owner sits near 2i, far away).
//
// Kept because it backs tracked experiment T6 (BenchmarkT6_LayoutModel
// in the root bench_test.go), its only importer.
package layout

import (
	"fmt"

	"ftnet/internal/bus"
	"ftnet/internal/graph"
)

// Wiring summarizes the wires of one implementation.
type Wiring struct {
	Wires       int // number of distinct wires
	TotalLength int // sum of wire lengths
	MaxLength   int // longest single wire
}

// String renders a short summary.
func (w Wiring) String() string {
	return fmt.Sprintf("wires=%d total=%d max=%d", w.Wires, w.TotalLength, w.MaxLength)
}

// PointToPoint computes the wiring of a direct implementation of g
// with nodes placed in index order. When ringPlacement is true,
// distances are cyclic (min(d, n-d)), modeling the natural circular
// placement of the paper's figures.
func PointToPoint(g *graph.Graph, ringPlacement bool) Wiring {
	n := g.N()
	var w Wiring
	g.EachEdge(func(u, v int) bool {
		d := dist(u, v, n, ringPlacement)
		w.Wires++
		w.TotalLength += d
		if d > w.MaxLength {
			w.MaxLength = d
		}
		return true
	})
	return w
}

// Buses computes the wiring of the bus implementation: one wire per
// bus, spanning its owner and every member.
func Buses(a *bus.Arch, ringPlacement bool) Wiring {
	n := a.NumBuses()
	var w Wiring
	for i := 0; i < n; i++ {
		span := busSpan(i, a.Members(i), n, ringPlacement)
		w.Wires++
		w.TotalLength += span
		if span > w.MaxLength {
			w.MaxLength = span
		}
	}
	return w
}

// busSpan returns the length of the shortest contiguous segment (linear
// or cyclic arc) covering the owner and all members.
func busSpan(owner int, members []int, n int, ringPlacement bool) int {
	pts := append([]int{owner}, members...)
	if !ringPlacement {
		lo, hi := pts[0], pts[0]
		for _, p := range pts {
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		return hi - lo
	}
	// Cyclic: the minimal covering arc is the full circle minus the
	// largest gap between consecutive occupied positions.
	occupied := make([]bool, n)
	for _, p := range pts {
		occupied[p] = true
	}
	// Find the largest run of unoccupied positions (cyclically).
	largestGap := 0
	run := 0
	// Scan twice around to handle wrap.
	for i := 0; i < 2*n; i++ {
		if occupied[i%n] {
			if run > largestGap {
				largestGap = run
			}
			run = 0
		} else {
			run++
			if run >= n {
				break
			}
		}
	}
	if run > largestGap && run < n {
		largestGap = run
	}
	return n - largestGap - 1
}

func dist(u, v, n int, ringPlacement bool) int {
	d := u - v
	if d < 0 {
		d = -d
	}
	if ringPlacement && n-d < d {
		d = n - d
	}
	return d
}
