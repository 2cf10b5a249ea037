// Package experiments regenerates every figure and every quantitative
// claim of the paper's evaluation (All is the per-experiment
// index): Figures 1-5, the theorem/corollary tables T1-T4, the
// Section I comparison against Samatham-Pradhan (T5), and the simulator
// experiments S1-S2 that quantify the paper's motivation and the bus
// slowdown argument.
//
// Each experiment writes a self-describing text table; cmd/ftbench
// exposes them on the command line and bench_test.go measures them.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"

	"ftnet/internal/debruijn"
	"ftnet/internal/ft"
	"ftnet/internal/graph"
	"ftnet/internal/num"
	"ftnet/internal/shuffle"
	"ftnet/internal/verify"
)

// Experiment is a named, runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 1: the base-2 four-digit de Bruijn graph B_{2,4}", F1},
		{"F2", "Figure 2: the fault-tolerant graph B^1_{2,4}", F2},
		{"F3", "Figure 3: new labels of B^1_{2,4} after one fault", F3},
		{"F4", "Figure 4: B^1_{2,3} with the bus implementation", F4},
		{"F5", "Figure 5: bus reconfiguration after one fault in B^1_{2,3}", F5},
		{"T1", "Theorem 1 / Corollaries 1-2: base-2 tolerance and degree", T1},
		{"T2", "Theorem 2 / Corollaries 3-4: base-m tolerance and degree", T2},
		{"T3", "Shuffle-exchange constructions: via-dB (4k+4) vs natural", T3},
		{"T4", "Section V: bus degrees (2k+3) and bus-fault tolerance", T4},
		{"T5", "Section I: comparison with Samatham-Pradhan", T5},
		{"S1", "Motivation: Ascend workload on faulted vs reconfigured machines", S1},
		{"S2", "Section V: bus slowdown, 2 ports vs 1 port", S2},
	}
}

// AllExtended returns the paper experiments plus the extended set
// (intro motivation, connectivity comparison, distributed protocol,
// ablations).
func AllExtended() []Experiment {
	out := append(All(), extended()...)
	out = append(out, extendedMore()...)
	return append(out, extendedFinal()...)
}

// ByID returns the experiment with the given id (paper or extended set).
func ByID(id string) (Experiment, bool) {
	for _, e := range AllExtended() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// F1 prints B_{2,4} exactly as Figure 1 presents it: 16 nodes with
// binary labels and their adjacency.
func F1(w io.Writer) error {
	p := debruijn.Params{M: 2, H: 4}
	g := debruijn.MustNew(p)
	debruijn.ApplyLabels(g, p)
	fmt.Fprintf(w, "B_{2,4}: %d nodes, %d edges, degree %d (<= 4)\n", g.N(), g.M(), g.MaxDegree())
	return printAdjacency(w, g)
}

// F2 prints B^1_{2,4}: 17 nodes, every node adjacent to the block of 4
// consecutive nodes starting at (2x-1) mod 17.
func F2(w io.Writer) error {
	p := ft.Params{M: 2, H: 4, K: 1}
	g := ft.MustNew(p)
	fmt.Fprintf(w, "%v: %d nodes, %d edges, degree %d (<= 4k+4 = %d)\n",
		p, g.N(), g.M(), g.MaxDegree(), p.DegreeBound())
	for x := 0; x < g.N(); x++ {
		fmt.Fprintf(w, "node %2d -> out-block %v\n", x, ft.OutBlock(x, p))
	}
	return nil
}

// F3 reproduces Figure 3: the new labels of B^1_{2,4} after node 1
// fails. It prints old host node -> hosted target label, and verifies
// the embedding that the solid edges of the figure realize.
func F3(w io.Writer) error {
	p := ft.Params{M: 2, H: 4, K: 1}
	host := ft.MustNew(p)
	target := debruijn.MustNew(p.Target())
	const failed = 1
	mp, err := ft.NewMapping(p.NTarget(), p.NHost(), []int{failed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fault at host node %d; reconfiguration (host <- target):\n", failed)
	inv := mp.HostToTarget()
	for v := 0; v < p.NHost(); v++ {
		switch {
		case mp.IsFaulty(v):
			fmt.Fprintf(w, "host %2d: FAULTY\n", v)
		case inv[v] < 0:
			fmt.Fprintf(w, "host %2d: spare (unused)\n", v)
		default:
			fmt.Fprintf(w, "host %2d: target %2d (%04b)\n", v, inv[v], inv[v])
		}
	}
	if err := graph.CheckEmbedding(target, host, mp.PhiSlice()); err != nil {
		return fmt.Errorf("figure-3 embedding invalid: %w", err)
	}
	fmt.Fprintf(w, "embedding verified: all %d target edges present after reconfiguration\n", target.M())
	return nil
}

// F4 prints the bus implementation of B^1_{2,3}: 9 nodes, one bus per
// node covering 4 consecutive nodes, bus degree <= 5.
func F4(w io.Writer) error {
	a, err := newBusArch(ft.Params{M: 2, H: 3, K: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "B^1_{2,3} bus implementation: %d buses, bus degree %d (<= 2k+3 = %d)\n",
		a.NumBuses(), a.MaxBusDegree(), a.DegreeBound())
	for i := 0; i < a.NumBuses(); i++ {
		fmt.Fprintf(w, "bus %d (owner %d) -> members %v\n", i, i, a.Members(i))
	}
	return nil
}

// F5 reproduces Figure 5: reconfiguration of the bus machine after one
// node fault, listing for every target edge the bus that now carries it.
func F5(w io.Writer) error {
	p := ft.Params{M: 2, H: 3, K: 1}
	a, err := newBusArch(p)
	if err != nil {
		return err
	}
	const failed = 4
	mp, err := a.Reconfigure([]int{failed}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fault at node %d; target edges -> carrying bus:\n", failed)
	n := p.NTarget()
	for x := 0; x < n; x++ {
		for r := 0; r < 2; r++ {
			y := num.X(x, 2, r, n)
			if y == x {
				continue
			}
			busID, err := a.EdgeBus(mp, x, y, r)
			if err != nil {
				return fmt.Errorf("edge (%d,%d): %w", x, y, err)
			}
			fmt.Fprintf(w, "target edge %d->%d (r=%d): host %d->%d on bus %d\n",
				x, y, r, mp.Phi(x), mp.Phi(y), busID)
		}
	}
	return nil
}

// T1 sweeps B^k_{2,h}: node counts, measured degree vs the 4k+4 bound,
// and tolerance verification (exhaustive where feasible, randomized
// otherwise).
func T1(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "h\tk\tnodes\tedges\tdegree\tbound 4k+4\tverified")
	for h := 3; h <= 8; h++ {
		for k := 0; k <= 6; k++ {
			p := ft.Params{M: 2, H: h, K: k}
			host := ft.MustNew(p)
			target := debruijn.MustNew(p.Target())
			mode, rep := verifyAuto(target, host, p, 30000)
			if !rep.Ok() {
				return fmt.Errorf("%v: %v", p, rep.First)
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%s (%d sets)\n",
				h, k, host.N(), host.M(), host.MaxDegree(), p.DegreeBound(), mode, rep.Checked)
		}
	}
	return tw.Flush()
}

// T2 sweeps B^k_{m,h} for m in {2..5}.
func T2(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "m\th\tk\tnodes\tdegree\tbound 4(m-1)k+2m\tverified")
	for _, m := range []int{2, 3, 4, 5} {
		for _, h := range []int{3, 4} {
			for k := 0; k <= 4; k++ {
				p := ft.Params{M: m, H: h, K: k}
				host := ft.MustNew(p)
				target := debruijn.MustNew(p.Target())
				mode, rep := verifyAuto(target, host, p, 20000)
				if !rep.Ok() {
					return fmt.Errorf("%v: %v", p, rep.First)
				}
				fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%s (%d sets)\n",
					m, h, k, host.N(), host.MaxDegree(), p.DegreeBound(), mode, rep.Checked)
			}
		}
	}
	return tw.Flush()
}

// T3 compares the two fault-tolerant shuffle-exchange constructions.
func T3(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "h\tk\tvia-dB degree\tbound 4k+4\tnatural degree\tpaper 6k+4\tours 6k+6\tverified")
	for h := 3; h <= 6; h++ {
		for k := 0; k <= 4; k++ {
			p := ft.SEParams{H: h, K: k}
			se := shuffle.MustNew(shuffle.Params{H: h})
			hostV, psi, err := ft.NewSEViaDB(p)
			if err != nil {
				return err
			}
			hostN, err := ft.NewSENatural(p)
			if err != nil {
				return err
			}
			repV := verify.Randomized(se, hostV, k, func(f, _ []int) ([]int, error) {
				return ft.SEMapViaDB(p, psi, f)
			}, 40, 1, nil)
			repN := verify.Randomized(se, hostN, k, func(f, buf []int) ([]int, error) {
				m, err := ft.NewMapping(p.NTarget(), p.NHost(), f)
				if err != nil {
					return nil, err
				}
				return m.AppendPhi(buf[:0]), nil
			}, 40, 1, nil)
			if !repV.Ok() {
				return fmt.Errorf("%v via-dB: %v", p, repV.First)
			}
			if !repN.Ok() {
				return fmt.Errorf("%v natural: %v", p, repN.First)
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\tboth (%d sets)\n",
				h, k, hostV.MaxDegree(), p.DegreeBoundViaDB(),
				hostN.MaxDegree(), 6*k+4, p.DegreeBoundNatural(), repV.Checked+repN.Checked)
		}
	}
	return tw.Flush()
}

// verifyAuto picks exhaustive verification when C(n,k) is small enough,
// randomized otherwise.
func verifyAuto(target, host *graph.Graph, p ft.Params, budget int) (string, verify.Report) {
	mapper := func(f, buf []int) ([]int, error) {
		m, err := ft.NewMapping(p.NTarget(), p.NHost(), f)
		if err != nil {
			return nil, err
		}
		return m.AppendPhi(buf[:0]), nil
	}
	if c, err := num.Binomial(p.NHost(), p.K); err == nil && c <= budget {
		return "exhaustive", verify.Exhaustive(target, host, p.K, mapper)
	}
	return "randomized", verify.Randomized(target, host, p.K, mapper, 20, 1, nil)
}

func printAdjacency(w io.Writer, g *graph.Graph) error {
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		labels := make([]string, len(nbrs))
		for i, v := range nbrs {
			labels[i] = g.Label(v)
		}
		sort.Strings(labels)
		if _, err := fmt.Fprintf(w, "%s: %v\n", g.Label(u), labels); err != nil {
			return err
		}
	}
	return nil
}

// stableRng returns the deterministic generator used by the simulator
// experiments.
func stableRng() *rand.Rand { return rand.New(rand.NewSource(19920415)) }
