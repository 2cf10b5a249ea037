// Command benchmark is ftnet's layer ledger: four workloads against the
// wire data plane, run in one process over loopback TCP with a real
// journal file, every answer checked against a fresh ft.NewMapping.
//
//	benchmark -workload read-direct -seed 1 -seconds 18 -trace 0
//	benchmark -runs 3 -o A.json
//	benchmark compare A.json B.json
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	began := time.Now()
	workload := flag.String("workload", "all", "one of the four workloads, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "timed length of one run, split between its phases")
	trace := flag.Int("trace", 0, "1 runs the ladder and prints the per-layer metrics instead of the end-to-end ones")
	runs := flag.Int("runs", 1, "runs of each workload; more than one makes a set for compare")
	setPath := flag.String("o", "", "write the set of runs to this file")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files and the disk probe")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue in metrics.go and workload.go has it, and exit")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		return compareMain(flag.Args()[1:])
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}

	defs := workloads
	if *workload != "all" {
		def, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	// One processor, and run.sh pins the process to one core that it
	// keeps from halting. On the two shared cores of the box this was
	// written on, who wakes whom across cores decides a third of every
	// round trip and changes by the second; on one core that never
	// sleeps the same frames repeat within a few percent.
	runtime.GOMAXPROCS(1)

	journals, err := journalRoot(*outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(journals)
	// The journals may be outside the checkout, on tmpfs, so they are
	// removed even when the run is cut short.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		os.RemoveAll(journals)
		os.Exit(1)
	}()

	cfg := runConfig{seed: uint64(*seed), seconds: *seconds, trace: *trace != 0, outDir: *outDir, journalDir: journals, began: began}
	set := newRunSet(cfg)
	ok := true
	for run := 0; run < *runs; run++ {
		for _, def := range defs {
			res, err := runWorkload(def, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
				return 1
			}
			set.add(def.name, res)
			ok = printRun(os.Stdout, def, cfg, res) && ok
		}
	}
	if *setPath != "" {
		if err := set.write(*setPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// printRun prints one run: a table for people, then the result line
// the driver reads. It reports whether every operation succeeded.
func printRun(out io.Writer, def workloadDef, cfg runConfig, res runResult) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "# %s seed %d, %g s, GOMAXPROCS %d\n", def.name, cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m := res.metrics[d.name]
		shown := fmt.Sprintf("%.6g", m.value)
		if m.value == absent && m.note == "absent" {
			shown = "absent"
		}
		note := m.note
		if d.moves != "" {
			note = strings.TrimPrefix(note+" -> "+d.moves, " ")
		}
		fmt.Fprintf(out, "%-34s %14s %-6s %s\n", d.name, shown, d.unit, note)
		metrics[d.name] = value{m.value, d.unit}
	}
	correct := res.failed == 0
	if !correct {
		fmt.Fprintf(out, "# %d of %d operations failed, first: %s\n", res.failed, res.attempted, res.firstErr)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Fprintln(out, string(line))
	return correct
}

// fsType names the filesystem that holds dir, from /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, kind = mount, f[2]
		}
	}
	return kind
}
