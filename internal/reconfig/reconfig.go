// Package reconfig implements a distributed version of the paper's
// reconfiguration algorithm. The paper presents reconfiguration as a
// global rank computation; on a real machine each healthy processor
// must discover the fault set and then determine *locally* which target
// node it hosts. Because the map is pure rank arithmetic —
// host v carries target Rank(v, healthy) — a node needs only the fault
// list, which floods through the healthy part of the host graph in
// (fault-free-region) eccentricity rounds.
//
// The package simulates that protocol synchronously and proves the
// outcome identical to the centralized ft.Mapping.
//
// Kept because it backs tracked experiment S4
// (BenchmarkS4_DistributedReconfig in the root bench_test.go) and the
// facade's DeBruijnNet.DistributedReconfigure, its only importers.
package reconfig

import (
	"fmt"

	"ftnet/internal/ft"
	"ftnet/internal/graph"
)

// FloodResult describes the dissemination phase.
type FloodResult struct {
	Rounds   int    // synchronous rounds until every healthy node knows all faults
	Informed []bool // per host node: true when it learned the full fault set
}

// Flood simulates synchronous flooding of the fault list from the
// faults' neighbors (the nodes that detect them) across the healthy
// subgraph of host. It returns an error when some healthy node can
// never learn the faults (the healthy subgraph is disconnected) —
// possible only when the fault set exceeds the host's connectivity.
func Flood(host *graph.Graph, faults []int) (FloodResult, error) {
	n := host.N()
	dead := make([]bool, n)
	for _, f := range faults {
		if f < 0 || f >= n {
			return FloodResult{}, fmt.Errorf("reconfig: fault %d out of range [0,%d)", f, n)
		}
		dead[f] = true
	}
	// Knowledge per node: how many of the faults it knows. Detection:
	// each fault is noticed by its healthy neighbors in round 0.
	knows := make([][]bool, n)
	for v := range knows {
		knows[v] = make([]bool, len(faults))
	}
	for i, f := range faults {
		for _, v := range host.Neighbors(f) {
			if !dead[v] {
				knows[v][i] = true
			}
		}
	}
	complete := func(v int) bool {
		for _, k := range knows[v] {
			if !k {
				return false
			}
		}
		return true
	}
	allDone := func() bool {
		for v := 0; v < n; v++ {
			if !dead[v] && !complete(v) {
				return false
			}
		}
		return true
	}
	rounds := 0
	if len(faults) > 0 {
		maxRounds := n + 1
		for ; !allDone() && rounds < maxRounds; rounds++ {
			next := make([][]bool, n)
			for v := range next {
				next[v] = append([]bool(nil), knows[v]...)
			}
			for v := 0; v < n; v++ {
				if dead[v] {
					continue
				}
				for _, u := range host.Neighbors(v) {
					if dead[u] {
						continue
					}
					for i := range faults {
						if knows[u][i] {
							next[v][i] = true
						}
					}
				}
			}
			knows = next
		}
		if !allDone() {
			return FloodResult{}, fmt.Errorf("reconfig: healthy subgraph disconnected; flooding cannot complete")
		}
	}
	informed := make([]bool, n)
	for v := 0; v < n; v++ {
		informed[v] = !dead[v] && complete(v)
	}
	return FloodResult{Rounds: rounds, Informed: informed}, nil
}

// LocalAssign is the per-node decision rule: with the complete fault
// list in hand, healthy host node self computes which target node it
// hosts (-1 when it is an unused spare). It is pure local arithmetic —
// count the healthy nodes below self.
func LocalAssign(nTarget, nHost, self int, faults []int) (int, error) {
	if self < 0 || self >= nHost {
		return 0, fmt.Errorf("reconfig: node %d out of range [0,%d)", self, nHost)
	}
	rank := self
	for _, f := range faults {
		if f == self {
			return 0, fmt.Errorf("reconfig: node %d is itself faulty", self)
		}
		if f < self {
			rank--
		}
	}
	if rank >= nTarget {
		return -1, nil // spare
	}
	return rank, nil
}

// Outcome is the result of the full distributed protocol.
type Outcome struct {
	Rounds       int   // dissemination rounds
	HostToTarget []int // per host node: target hosted, -1 for faulty/spare
}

// Run executes the full protocol (flood, then local assignment) and
// cross-checks the result against the centralized mapping. The returned
// assignment is guaranteed identical to ft.NewMapping's.
func Run(host *graph.Graph, nTarget int, faults []int) (Outcome, error) {
	fl, err := Flood(host, faults)
	if err != nil {
		return Outcome{}, err
	}
	nHost := host.N()
	assign := make([]int, nHost)
	dead := make(map[int]bool, len(faults))
	for _, f := range faults {
		dead[f] = true
	}
	for v := 0; v < nHost; v++ {
		if dead[v] {
			assign[v] = -1
			continue
		}
		tgt, err := LocalAssign(nTarget, nHost, v, faults)
		if err != nil {
			return Outcome{}, err
		}
		assign[v] = tgt
	}
	// Cross-check against the centralized algorithm.
	mp, err := ft.NewMapping(nTarget, nHost, faults)
	if err != nil {
		return Outcome{}, err
	}
	want := mp.HostToTarget()
	for v := range want {
		if assign[v] != want[v] {
			return Outcome{}, fmt.Errorf("reconfig: node %d decided %d, centralized says %d",
				v, assign[v], want[v])
		}
	}
	return Outcome{Rounds: fl.Rounds, HostToTarget: assign}, nil
}
