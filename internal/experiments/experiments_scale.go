package experiments

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/num"
)

// allocsPerRun measures the average number of heap allocations one
// call of fn performs, via the runtime's Mallocs counter — the
// experiment runs single-goroutine, so the delta is fn's own. (The
// testing package's AllocsPerRun is deliberately not used: importing
// it here would link the test framework into cmd/ftbench and pin
// GOMAXPROCS(1) for the duration of each measurement.)
func allocsPerRun(runs int, fn func()) float64 {
	fn() // warm up so one-time lazy initialization is not counted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// L2 is the scale experiment for the compact rank-based mapping
// representation: it drives one live fleet.Instance per host size from
// 2^10 up to 2^20 (a million-node machine) through fault/repair
// transitions and lookups, and tabulates per-operation time and
// allocation counts next to what the dense representation used to pay
// per transition (an O(nHost) healthy-array rebuild).
//
// The tracked invariant — enforced here, not just printed — is that
// Apply and Lookup allocation counts are flat in nHost: a fault event
// on a million-node instance touches O(k) state, not megabytes. Times
// are machine-dependent; the allocation columns are exact.
func L2(w io.Writer) error {
	const k = 16
	type row struct {
		h           int
		nHost       int
		applyNs     float64
		applyAllocs float64
		lookupNs    float64
		lookupAlloc float64
		denseNs     float64
	}
	var rows []row
	for _, h := range []int{10, 14, 17, 20} {
		in, err := fleet.NewManager(fleet.Options{}).Create(
			fmt.Sprintf("l2-h%d", h), fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: h, K: k})
		if err != nil {
			return err
		}
		nHost := num.MustIPow(2, h) + k

		// One transition = an atomic 4-fault burst plus its repair, the
		// recurring-rack shape that exercises the snapshot Apply in both
		// directions. Warm up once so steady-state allocations are
		// measured (the commit log's tail grown, not first touch).
		fault := []fleet.Event{{Kind: fleet.EventFault, Node: 0}, {Kind: fleet.EventFault, Node: 1},
			{Kind: fleet.EventFault, Node: 2}, {Kind: fleet.EventFault, Node: 3}}
		repair := []fleet.Event{{Kind: fleet.EventRepair, Node: 0}, {Kind: fleet.EventRepair, Node: 1},
			{Kind: fleet.EventRepair, Node: 2}, {Kind: fleet.EventRepair, Node: 3}}
		applyPair := func() error {
			if _, err := in.ApplyBatch(fault); err != nil {
				return err
			}
			_, err := in.ApplyBatch(repair)
			return err
		}
		if err := applyPair(); err != nil {
			return err
		}
		applyAllocs := allocsPerRun(50, func() {
			if err := applyPair(); err != nil {
				panic(err)
			}
		}) / 2 // per transition, not per pair
		const applyIters = 1000
		t0 := time.Now()
		for i := 0; i < applyIters; i++ {
			if err := applyPair(); err != nil {
				return err
			}
		}
		applyNs := float64(time.Since(t0).Nanoseconds()) / (2 * applyIters)

		nTarget := num.MustIPow(2, h)
		lookupAllocs := allocsPerRun(100, func() {
			if _, err := in.Lookup(nTarget - 1); err != nil {
				panic(err)
			}
		})
		const lookupIters = 200000
		t0 = time.Now()
		for i := 0; i < lookupIters; i++ {
			if _, err := in.Lookup(i & (nTarget - 1)); err != nil {
				return err
			}
		}
		lookupNs := float64(time.Since(t0).Nanoseconds()) / lookupIters

		// The dense representation's per-transition floor: rebuilding the
		// O(nHost) healthy array, exactly what NewMapping did before the
		// compact rewrite.
		faults := in.Snapshot().Faults()
		const denseIters = 5
		t0 = time.Now()
		for i := 0; i < denseIters; i++ {
			if got := num.Complement(faults, nHost); len(got) != nHost-len(faults) {
				return fmt.Errorf("dense rebuild sized %d", len(got))
			}
		}
		denseNs := float64(time.Since(t0).Nanoseconds()) / denseIters

		rows = append(rows, row{h, nHost, applyNs, applyAllocs, lookupNs, lookupAllocs, denseNs})
	}

	fmt.Fprintf(w, "compact rank-based mappings at scale (k = %d, 4-event bursts, steady state)\n", k)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "h\tnHost\tapply ns/op\tapply allocs/op\tlookup ns/op\tlookup allocs/op\tdense rebuild ns (old)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.1f\t%.1f\t%.1f\t%.0f\n",
			r.h, r.nHost, r.applyNs, r.applyAllocs, r.lookupNs, r.lookupAlloc, r.denseNs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Same flatness rule as TestApplyAllocsIndependentOfN and the CI
	// gate (ftbenchjson -check): one object of headroom for counter
	// jitter, none for an O(n) dependence.
	small, large := rows[0], rows[len(rows)-1]
	if large.applyAllocs > small.applyAllocs+1 {
		return fmt.Errorf("apply allocations scale with nHost: %.1f at 2^%d vs %.1f at 2^%d",
			large.applyAllocs, large.h, small.applyAllocs, small.h)
	}
	if large.lookupAlloc > 0.5 {
		return fmt.Errorf("lookup allocates (%.1f/op) at 2^%d", large.lookupAlloc, large.h)
	}
	fmt.Fprintf(w, "invariant checked: apply allocs flat in nHost (%.1f at 2^%d vs %.1f at 2^%d), lookups allocation-free;\n",
		small.applyAllocs, small.h, large.applyAllocs, large.h)
	fmt.Fprintf(w, "the dense column is what every transition used to cost before snapshots went O(k)\n")
	return nil
}
