package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"ftnet/internal/debruijn"
	"ftnet/internal/ft"
	"ftnet/internal/graph"
	"ftnet/internal/hypercube"
	"ftnet/internal/num"
	"ftnet/internal/route"
	"ftnet/internal/shuffle"
	"ftnet/internal/sim"
	"ftnet/internal/verify"
)

// extended returns the experiments beyond the paper's own evaluation:
// the introduction's motivating comparisons and ablations of the design
// choices (AllExtended lists them after the paper's own).
func extended() []Experiment {
	return []Experiment{
		{"M1", "Intro motivation: degree and Ascend cost across topologies", M1},
		{"M2", "Passive connectivity (Esfahanian-Hakimi) vs spare-based tolerance", M2},
		{"A1", "Ablation: the edge rule's r-range {-k..k+1} is tight", A1},
		{"S3", "Congestion: permutation traffic, healthy vs reconfigured host", S3},
	}
}

// M1 regenerates the introduction's argument as a table: hypercube
// degree grows with machine size; shuffle-exchange, de Bruijn and CCC
// stay constant-degree with only a constant-factor Ascend slowdown.
func M1(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "N=2^h\thypercube deg\tdB deg\tSE deg\tCCC deg\tAscend: Q / dB / SE / CCC (cycles)")
	for h := 3; h <= 10; h++ {
		q := hypercube.MustNew(h)
		db := debruijn.MustNew(debruijn.Params{M: 2, H: h})
		se := shuffle.MustNew(shuffle.Params{H: h})
		ccc := hypercube.MustNewCCC(h)
		c := hypercube.AscendCost(h)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d / %d / %d / %d\n",
			1<<h, q.MaxDegree(), db.MaxDegree(), se.MaxDegree(), ccc.MaxDegree(),
			c.Hypercube, c.DeBruijn, c.ShuffleExchange, c.CCC)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Execute the hypercube-native Ascend once as a ground truth.
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = 1
	}
	out, rounds, err := hypercube.RunAscendSum(6, vals)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nhypercube-native Ascend (h=6): sum=%d in %d rounds; SE emulation needs %d\n",
		out[0], rounds, 2*6)
	return nil
}

// M2 contrasts the passive fault tolerance of the bare topologies (how
// many faults until the network CAN disconnect — the Esfahanian-Hakimi
// measure, paper ref [8]) with the paper's spare-node guarantee (full
// topology preserved for any k faults).
func M2(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tkappa\tlambda\tpassive: survives\tspare-based (this paper)")
	for h := 3; h <= 5; h++ {
		db := debruijn.MustNew(debruijn.Params{M: 2, H: h})
		kap := graph.VertexConnectivity(db)
		lam := graph.EdgeConnectivity(db)
		fmt.Fprintf(tw, "B_{2,%d}\t%d\t%d\tany %d faults, connectivity only\tany k faults, FULL B_{2,%d} with k spares\n",
			h, kap, lam, kap-1, h)
	}
	for h := 3; h <= 5; h++ {
		se := shuffle.MustNew(shuffle.Params{H: h})
		kap := graph.VertexConnectivity(se)
		lam := graph.EdgeConnectivity(se)
		fmt.Fprintf(tw, "SE_%d\t%d\t%d\tany %d faults, connectivity only\tany k faults, FULL SE_%d with k spares\n",
			h, kap, lam, kap-1, h)
	}
	for _, m := range []int{3, 4} {
		db := debruijn.MustNew(debruijn.Params{M: m, H: 3})
		kap := graph.VertexConnectivity(db)
		fmt.Fprintf(tw, "B_{%d,3}\t%d\t%d\tany %d faults, connectivity only\tany k faults, FULL topology\n",
			m, kap, graph.EdgeConnectivity(db), kap-1)
	}
	return tw.Flush()
}

// A1 ablates the fault-tolerant edge rule: dropping either extreme of
// the r-range {-k, ..., k+1} must break (k,G)-tolerance — i.e. the
// paper's range is tight. For each truncation we run exhaustive
// verification and report the number of fault sets that break.
func A1(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "h\tk\tr-range\tfault sets\tfailures")
	for _, c := range []struct{ h, k int }{{3, 1}, {3, 2}, {4, 1}, {4, 2}} {
		p := ft.Params{M: 2, H: c.h, K: c.k}
		target := debruijn.MustNew(p.Target())
		mapper := func(f, buf []int) ([]int, error) {
			m, err := ft.NewMapping(p.NTarget(), p.NHost(), f)
			if err != nil {
				return nil, err
			}
			return m.AppendPhi(buf[:0]), nil
		}
		for _, variant := range []struct {
			name       string
			rmin, rmax int
		}{
			{"full {-k..k+1}", -c.k, c.k + 1},
			{"drop low {-k+1..k+1}", -c.k + 1, c.k + 1},
			{"drop high {-k..k}", -c.k, c.k},
		} {
			host := buildTruncated(p, variant.rmin, variant.rmax)
			rep := verify.Exhaustive(target, host, p.K, mapper)
			fmt.Fprintf(tw, "%d\t%d\t%s\t%d\t%d\n", c.h, c.k, variant.name, rep.Checked, rep.Failed)
			if variant.rmin == p.RMin() && variant.rmax == p.RMax() && !rep.Ok() {
				return fmt.Errorf("full range failed: %v", rep.First)
			}
			if (variant.rmin != p.RMin() || variant.rmax != p.RMax()) && rep.Ok() {
				// A truncation that happens to survive would itself be a
				// finding (a smaller-degree construction); record loudly.
				fmt.Fprintf(tw, "\t\t^^ truncated range UNEXPECTEDLY sufficient\t\t\n")
			}
		}
	}
	return tw.Flush()
}

// buildTruncated builds the B^k-style host with a custom r-range.
func buildTruncated(p ft.Params, rmin, rmax int) *graph.Graph {
	s := p.NHost()
	b := graph.NewBuilder(s)
	for x := 0; x < s; x++ {
		for r := rmin; r <= rmax; r++ {
			b.AddEdge(x, num.X(x, p.M, r, s))
		}
	}
	return b.Build()
}

// S3 measures congestion: the same random permutation routed on the
// healthy target versus lifted onto the reconfigured host. Dilation is
// 1, so cycle counts should match closely — reconfiguration costs no
// bandwidth.
func S3(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "h\tk\ttarget cycles\treconfigured host cycles\tratio")
	rng := stableRng()
	for h := 4; h <= 7; h++ {
		for _, k := range []int{1, 4} {
			p := ft.Params{M: 2, H: h, K: k}
			target := debruijn.MustNew(p.Target())
			host := ft.MustNew(p)
			n := p.NTarget()

			// A fixed random permutation, routed with the de Bruijn digit
			// router on the target.
			perm := rng.Perm(n)
			router := func(u, v int) ([]int, error) { return route.ShortPath(u, v, p.Target()) }
			msgsT, err := sim.Permutation(n, func(x int) int { return perm[x] }, router)
			if err != nil {
				return err
			}
			stT, err := sim.Run(sim.NewPointToPoint(target, 2), msgsT, 100000)
			if err != nil {
				return err
			}

			faults := num.RandomSubset(rng, p.NHost(), k)
			mp, err := ft.NewMapping(p.NTarget(), p.NHost(), faults)
			if err != nil {
				return err
			}
			phi := mp.PhiSlice()
			lifted := func(u, v int) ([]int, error) {
				pth, err := route.ShortPath(u, v, p.Target())
				if err != nil {
					return nil, err
				}
				return route.Lift(pth, phi)
			}
			msgsH, err := sim.Permutation(n, func(x int) int { return perm[x] }, lifted)
			if err != nil {
				return err
			}
			stH, err := sim.Run(sim.NewPointToPoint(host, 2), msgsH, 100000)
			if err != nil {
				return err
			}
			if stT.Stalled || stH.Stalled {
				return fmt.Errorf("h=%d k=%d: stalled (%v / %v)", h, k, stT, stH)
			}
			ratio := float64(stH.Cycles) / float64(stT.Cycles)
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.2f\n", h, k, stT.Cycles, stH.Cycles, ratio)
		}
	}
	return tw.Flush()
}
