package ftnet

// One benchmark per paper figure/table (experiments.All is the
// index), plus micro-benchmarks of the core operations: construction,
// reconfiguration, embedding verification, and the SE->dB embedder.
//
// Run with: go test -bench=. -benchmem

import (
	"io"
	"math/rand"
	"testing"

	"ftnet/internal/ascend"
	"ftnet/internal/debruijn"
	"ftnet/internal/experiments"
	"ftnet/internal/fleet"
	"ftnet/internal/ft"
	"ftnet/internal/graph"
	"ftnet/internal/num"
	"ftnet/internal/route"
	"ftnet/internal/shuffle"
	"ftnet/internal/sim"
	"ftnet/internal/verify"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures.

func BenchmarkFig1_DeBruijnB24(b *testing.B)     { benchExperiment(b, "F1") }
func BenchmarkFig2_FTDeBruijn(b *testing.B)      { benchExperiment(b, "F2") }
func BenchmarkFig3_Reconfigure(b *testing.B)     { benchExperiment(b, "F3") }
func BenchmarkFig4_BusArchitecture(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkFig5_BusReconfigure(b *testing.B)  { benchExperiment(b, "F5") }

// Tables.

func BenchmarkT1_Base2Tolerance(b *testing.B)     { benchExperiment(b, "T1") }
func BenchmarkT2_BaseMTolerance(b *testing.B)     { benchExperiment(b, "T2") }
func BenchmarkT3_ShuffleExchange(b *testing.B)    { benchExperiment(b, "T3") }
func BenchmarkT4_BusDegree(b *testing.B)          { benchExperiment(b, "T4") }
func BenchmarkT5_BaselineComparison(b *testing.B) { benchExperiment(b, "T5") }

// Simulator experiments.

func BenchmarkS1_FaultImpact(b *testing.B) { benchExperiment(b, "S1") }
func BenchmarkS2_BusSlowdown(b *testing.B) { benchExperiment(b, "S2") }

// Micro-benchmarks: construction.

func benchConstruct(b *testing.B, p ft.Params) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ft.New(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructB2h8k4(b *testing.B)  { benchConstruct(b, ft.Params{M: 2, H: 8, K: 4}) }
func BenchmarkConstructB2h12k4(b *testing.B) { benchConstruct(b, ft.Params{M: 2, H: 12, K: 4}) }
func BenchmarkConstructB4h5k2(b *testing.B)  { benchConstruct(b, ft.Params{M: 4, H: 5, K: 2}) }

// Micro-benchmarks: reconfiguration map for a large machine.

func BenchmarkReconfigure(b *testing.B) {
	p := ft.Params{M: 2, H: 16, K: 8}
	rng := rand.New(rand.NewSource(1))
	faultSets := make([][]int, 64)
	for i := range faultSets {
		faultSets[i] = num.RandomSubset(rng, p.NHost(), p.K)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ft.NewMapping(p.NTarget(), p.NHost(), faultSets[i%len(faultSets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetLookup measures the full service path: Manager ->
// instance -> current mapping, the operation ftnetd performs per
// phi query.
func BenchmarkFleetLookup(b *testing.B) {
	m := fleet.NewManager(fleet.Options{})
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 12, K: 6}
	if _, err := m.Create("bench", spec); err != nil {
		b.Fatal(err)
	}
	for _, f := range []int{5, 99, 1024} {
		if _, err := m.Event("bench", fleet.Event{Kind: fleet.EventFault, Node: f}); err != nil {
			b.Fatal(err)
		}
	}
	n := 1 << 12
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Lookup("bench", i%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetEventBatch measures the write path ftnetd performs per
// events:batch POST: one atomic snapshot transition applying a
// four-event burst.
func BenchmarkFleetEventBatch(b *testing.B) {
	m := fleet.NewManager(fleet.Options{})
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 12, K: 6}
	if _, err := m.Create("bench", spec); err != nil {
		b.Fatal(err)
	}
	fault := []fleet.Event{{Kind: fleet.EventFault, Node: 0}, {Kind: fleet.EventFault, Node: 1},
		{Kind: fleet.EventFault, Node: 2}, {Kind: fleet.EventFault, Node: 3}}
	repair := []fleet.Event{{Kind: fleet.EventRepair, Node: 0}, {Kind: fleet.EventRepair, Node: 1},
		{Kind: fleet.EventRepair, Node: 2}, {Kind: fleet.EventRepair, Node: 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := fault
		if i%2 == 1 {
			batch = repair
		}
		if _, err := m.EventBatch("bench", batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL1_ServiceThroughput reruns the tracked service-throughput
// experiment (read-heavy and burst-heavy ftload scenarios against an
// in-process daemon).
func BenchmarkL1_ServiceThroughput(b *testing.B) { benchExperiment(b, "L1") }

// Micro-benchmarks: full embedding check after reconfiguration.

func BenchmarkEmbeddingCheckH10(b *testing.B) {
	p := ft.Params{M: 2, H: 10, K: 6}
	host := ft.MustNew(p)
	target := debruijn.MustNew(p.Target())
	rng := rand.New(rand.NewSource(2))
	faults := num.RandomSubset(rng, p.NHost(), p.K)
	m, err := ft.NewMapping(p.NTarget(), p.NHost(), faults)
	if err != nil {
		b.Fatal(err)
	}
	phi := m.PhiSlice()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.CheckEmbedding(target, host, phi); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks: exhaustive verification throughput (small instance).

func BenchmarkExhaustiveVerifyB23K2(b *testing.B) {
	p := ft.Params{M: 2, H: 3, K: 2}
	host := ft.MustNew(p)
	target := debruijn.MustNew(p.Target())
	mapper := func(f, buf []int) ([]int, error) {
		m, err := ft.NewMapping(p.NTarget(), p.NHost(), f)
		if err != nil {
			return nil, err
		}
		return m.AppendPhi(buf[:0]), nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := verify.Exhaustive(target, host, p.K, mapper)
		if !rep.Ok() {
			b.Fatal(rep.First)
		}
	}
}

// Micro-benchmarks: the SE->dB necklace embedder.

func BenchmarkShuffleEmbedH8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shuffle.EmbedIntoDeBruijn(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShuffleEmbedH12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shuffle.EmbedIntoDeBruijn(12); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks: Ascend workload on a reconfigured machine.

func BenchmarkAscendReconfiguredH8(b *testing.B) {
	const h = 8
	p := ft.SEParams{H: h, K: 4}
	host, psi, err := ft.NewSEViaDB(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	faults := num.RandomSubset(rng, p.NHost(), p.K)
	loc, err := ft.SEMapViaDB(p, psi, faults)
	if err != nil {
		b.Fatal(err)
	}
	dead := make([]bool, p.NHost())
	for _, f := range faults {
		dead[f] = true
	}
	hst := &ascend.Host{G: host, Loc: loc, Dead: dead}
	n := 1 << h
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ascend.RunSE(h, hst, vals, ascend.Sum); err != nil {
			b.Fatal(err)
		}
	}
}

// Extended experiments (intro motivation, connectivity, ablations).

func BenchmarkM1_TopologyComparison(b *testing.B)  { benchExperiment(b, "M1") }
func BenchmarkM2_PassiveConnectivity(b *testing.B) { benchExperiment(b, "M2") }
func BenchmarkA1_RRangeAblation(b *testing.B)      { benchExperiment(b, "A1") }
func BenchmarkS3_ReconfigCongestion(b *testing.B)  { benchExperiment(b, "S3") }

func BenchmarkS4_DistributedReconfig(b *testing.B) { benchExperiment(b, "S4") }
func BenchmarkA2_MigrationCost(b *testing.B)       { benchExperiment(b, "A2") }

func BenchmarkA3_WitnessUsage(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkS5_BitonicSort(b *testing.B)  { benchExperiment(b, "S5") }

func BenchmarkA4_GeneralizedTargets(b *testing.B) { benchExperiment(b, "A4") }
func BenchmarkM3_AvoidVsReconfig(b *testing.B)    { benchExperiment(b, "M3") }

func BenchmarkT6_LayoutModel(b *testing.B) { benchExperiment(b, "T6") }

func BenchmarkS6_WormholeLatency(b *testing.B) { benchExperiment(b, "S6") }

// Additional micro-benchmarks: routing, simulation and verification
// primitives at realistic sizes.

func BenchmarkRouteShortPathH12(b *testing.B) {
	p := debruijnParams12
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := route.ShortPath(i%p.N(), (i*2654435761)%p.N(), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimPermutationH8(b *testing.B) {
	g := debruijn.MustNew(debruijn.Params{M: 2, H: 8})
	msgs, err := sim.Permutation(g.N(), func(x int) int { return (x + 101) % g.N() }, sim.BFSRouter(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := make([]*sim.Message, len(msgs))
		for j, m := range msgs {
			fresh[j] = &sim.Message{ID: m.ID, Route: m.Route}
		}
		st, err := sim.Run(sim.NewPointToPoint(g, 2), fresh, 100000)
		if err != nil || st.Stalled {
			b.Fatalf("%v %v", st, err)
		}
	}
}

func BenchmarkRandomizedVerifyH8K6(b *testing.B) {
	p := ft.Params{M: 2, H: 8, K: 6}
	host := ft.MustNew(p)
	target := debruijn.MustNew(p.Target())
	mapper := func(f, buf []int) ([]int, error) {
		m, err := ft.NewMapping(p.NTarget(), p.NHost(), f)
		if err != nil {
			return nil, err
		}
		return m.AppendPhi(buf[:0]), nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := verify.Randomized(target, host, p.K, mapper, 5, int64(i), nil)
		if !rep.Ok() {
			b.Fatal(rep.First)
		}
	}
}

var debruijnParams12 = debruijn.Params{M: 2, H: 12}
