// Command ftbenchjson converts `go test -bench` text output into a
// JSON benchmark artifact and optionally enforces the repository's
// benchmark-regression smoke check.
//
// Usage:
//
//	go test ./internal/fleet -bench Scale -benchtime 100x -benchmem -run '^$' \
//	    | go run ./cmd/ftbenchjson -out BENCH_fleet.json -check
//
// The JSON artifact is a stable record of one CI run (ns/op, B/op,
// allocs/op per benchmark, and every other value/unit pair a benchmark
// reports, such as writev/frame, syncs/record or ns/record, under
// metrics), suitable for uploading per run and diffing across runs.
//
// With -check, benchmarks whose names carry an `/n=<size>` sub-name
// (the scale sweeps) are grouped by family and the allocation counts
// must be flat in n: if the largest size allocates more than one
// object per op above the smallest, the command exits non-zero. That
// is the acceptance criterion of the compact mapping representation —
// a fault event on a million-node instance must not allocate
// proportionally to the instance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`        // e.g. ApplyScale/n=1024
	Family      string  `json:"family"`      // e.g. ApplyScale
	N           int     `json:"n,omitempty"` // the /n= sub-name, when present
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HasAllocs   bool    `json:"-"`
	// Metrics holds the custom units (b.ReportMetric), by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the JSON document one run produces.
type Artifact struct {
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "benchmark text to read (default stdin)")
	out := flag.String("out", "BENCH_fleet.json", "JSON artifact to write")
	check := flag.Bool("check", false, "fail if allocs/op grows with the /n= size within a family")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	art, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(art.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("ftbenchjson: wrote %d benchmarks to %s\n", len(art.Benchmarks), *out)

	if *check {
		if err := checkAllocsFlat(art.Benchmarks); err != nil {
			fatal(err)
		}
		fmt.Println("ftbenchjson: allocation-flatness check passed")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ftbenchjson: %v\n", err)
	os.Exit(1)
}

// parse reads `go test -bench` text output. Result lines look like
//
//	BenchmarkApplyScale/n=1024-8  100  342.8 ns/op  160 B/op  4 allocs/op
//
// where the trailing -8 is GOMAXPROCS and the value/unit pairs vary
// with -benchmem.
func parse(r io.Reader) (Artifact, error) {
	var art Artifact
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg:"):
			art.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			art.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // e.g. a "Benchmarking..." prose line
		}
		b := Benchmark{Iterations: iters}
		b.Name = strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix from the last path element.
		if i := strings.LastIndex(b.Name, "-"); i > strings.LastIndex(b.Name, "/") {
			b.Name = b.Name[:i]
		}
		b.Family, _, _ = strings.Cut(b.Name, "/")
		if _, sub, ok := strings.Cut(b.Name, "/n="); ok {
			if n, err := strconv.Atoi(sub); err == nil {
				b.N = n
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return art, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
				b.HasAllocs = true
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		art.Benchmarks = append(art.Benchmarks, b)
	}
	return art, sc.Err()
}

// checkAllocsFlat groups /n= benchmarks by family and requires the
// allocation count at the largest n to stay within one object of the
// smallest — flat, with headroom for counter jitter but not for an
// O(n) dependence.
func checkAllocsFlat(benchmarks []Benchmark) error {
	families := map[string][]Benchmark{}
	for _, b := range benchmarks {
		if b.N > 0 && b.HasAllocs {
			families[b.Family] = append(families[b.Family], b)
		}
	}
	if len(families) == 0 {
		return fmt.Errorf("-check found no /n= benchmarks with allocs/op (run with -benchmem)")
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bs := families[name]
		if len(bs) < 2 {
			continue
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].N < bs[j].N })
		small, large := bs[0], bs[len(bs)-1]
		if large.AllocsPerOp > small.AllocsPerOp+1 {
			return fmt.Errorf("%s: allocs/op scales with n: %.1f at n=%d vs %.1f at n=%d",
				name, large.AllocsPerOp, large.N, small.AllocsPerOp, small.N)
		}
		fmt.Printf("ftbenchjson: %s allocs flat: %.1f at n=%d .. %.1f at n=%d\n",
			name, small.AllocsPerOp, small.N, large.AllocsPerOp, large.N)
	}
	return nil
}
