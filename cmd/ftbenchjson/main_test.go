package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ftnet/internal/fleet
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkApplyScale/n=1024-8         	     100	       342.8 ns/op	     160 B/op	       4 allocs/op
BenchmarkApplyScale/n=1048576-8      	     100	       275.1 ns/op	     160 B/op	       4 allocs/op
BenchmarkLookupScale/n=1024-8        	     100	        10.87 ns/op	       0 B/op	       0 allocs/op
BenchmarkLookupScale/n=1048576-8     	     100	         9.700 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheGetSharded-8           	     500	       120.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ftnet/internal/fleet	0.007s
`

func TestParse(t *testing.T) {
	art, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if art.Pkg != "ftnet/internal/fleet" {
		t.Errorf("pkg = %q", art.Pkg)
	}
	if !strings.Contains(art.CPU, "Xeon") {
		t.Errorf("cpu = %q", art.CPU)
	}
	if len(art.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(art.Benchmarks))
	}
	b := art.Benchmarks[0]
	if b.Name != "ApplyScale/n=1024" || b.Family != "ApplyScale" || b.N != 1024 {
		t.Errorf("first benchmark = %+v", b)
	}
	if b.Iterations != 100 || b.NsPerOp != 342.8 || b.BytesPerOp != 160 || b.AllocsPerOp != 4 {
		t.Errorf("first benchmark values = %+v", b)
	}
	last := art.Benchmarks[4]
	if last.Name != "CacheGetSharded" || last.N != 0 {
		t.Errorf("non-scale benchmark = %+v", last)
	}
	if b.Metrics != nil {
		t.Errorf("a line of the three standard units carries metrics %v", b.Metrics)
	}
}

// TestParseKeepsCustomUnits: a b.ReportMetric unit reaches the artifact
// beside the standard three, whatever its place on the line.
func TestParseKeepsCustomUnits(t *testing.T) {
	const line = "BenchmarkWireDirectPipelined-8   \t  200000\t      2034 ns/op\t         0.07812 writev/frame\t     120 B/op\t       2 allocs/op\n"
	art, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(art.Benchmarks))
	}
	b := art.Benchmarks[0]
	if b.Name != "WireDirectPipelined" || b.NsPerOp != 2034 || b.BytesPerOp != 120 || b.AllocsPerOp != 2 {
		t.Errorf("standard units = %+v", b)
	}
	if len(b.Metrics) != 1 || b.Metrics["writev/frame"] != 0.07812 {
		t.Errorf("metrics = %v, want writev/frame 0.07812", b.Metrics)
	}
}

func TestCheckAllocsFlatPasses(t *testing.T) {
	art, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAllocsFlat(art.Benchmarks); err != nil {
		t.Errorf("flat allocations rejected: %v", err)
	}
}

func TestCheckAllocsFlatCatchesScaling(t *testing.T) {
	scaling := `BenchmarkApplyScale/n=1024-8     100  342.8 ns/op  160 B/op  4 allocs/op
BenchmarkApplyScale/n=1048576-8  100  99999 ns/op  8388608 B/op  12 allocs/op
`
	art, err := parse(strings.NewReader(scaling))
	if err != nil {
		t.Fatal(err)
	}
	err = checkAllocsFlat(art.Benchmarks)
	if err == nil {
		t.Fatal("O(n) allocation growth passed the check")
	}
	if !strings.Contains(err.Error(), "ApplyScale") {
		t.Errorf("error does not name the family: %v", err)
	}
}

func TestCheckAllocsFlatNeedsScaleData(t *testing.T) {
	art, err := parse(strings.NewReader("BenchmarkFoo-8  100  10 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAllocsFlat(art.Benchmarks); err == nil {
		t.Error("check passed with no /n= alloc data to check")
	}
}
