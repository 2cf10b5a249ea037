package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSet is what -runs N -o FILE writes and compare reads: where and
// how the runs were made, then every run's end-to-end metrics.
type runSet struct {
	Header setHeader `json:"header"`
	Runs   []setRun  `json:"runs"`
}

type setHeader struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	JournalFS  string             `json:"journal_fs"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Phases     map[string]float64 `json:"phase_seconds"` // "workload/phase" -> seconds
	Traced     bool               `json:"traced"`
	When       string             `json:"when"`
}

type setRun struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newRunSet(cfg runConfig) *runSet {
	h := setHeader{
		Commit: headCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		JournalFS: fsType(cfg.journalDir), Seed: cfg.seed, Seconds: cfg.seconds, Phases: map[string]float64{}, Traced: cfg.trace,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	for _, w := range workloads {
		for _, p := range w.phases {
			h.Phases[w.name+"/"+p.name] = p.share * cfg.seconds
		}
	}
	return &runSet{Header: h}
}

func (s *runSet) add(workload string, res runResult) {
	run := setRun{Workload: workload, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]float64{}}
	for name, m := range res.metrics {
		run.Metrics[name] = m.value
	}
	s.Runs = append(s.Runs, run)
}

func (s *runSet) write(path string) error {
	raw, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// headCommit reads the checked-out commit from .git without starting a
// process; a checkout that is not a repository has none.
func headCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for ; ; dir = filepath.Dir(dir) {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(sha))
			}
			return ref
		}
		if dir == filepath.Dir(dir) {
			return "unknown"
		}
	}
}

func readSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *runSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v)
		}
	}
	return vs
}

// verdict judges one metric of one workload: B against A.
//
// It is "regressed" when B's median is worse than A's by more than the
// bound. When A's own runs spread wider than the bound the medians
// cannot carry that judgement: the row is "ok" only if every run of B
// reads better than every run of A, "regressed" only if every run of B
// reads worse and the medians differ by more than the bound, and
// "unresolved" when the runs interleave.
func verdict(def metricDef, a, b []float64) (string, float64) {
	sign := 1.0 // worse is up
	if def.better == "higher" {
		sign = -1
	}
	worse := sign * (median(b) - median(a)) / median(a)
	if spread(a) <= def.bound {
		if worse > def.bound {
			return "regressed", worse
		}
		return "ok", worse
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok", worse
	case allWorse && worse > def.bound:
		return "regressed", worse
	}
	return "unresolved", worse
}

// compareMain prints one row per workload and end-to-end metric and
// returns the exit code: 1 if any row regressed or any run failed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err == nil {
		var b *runSet
		if b, err = readSet(args[1]); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareSets(a, b *runSet) int {
	for side, s := range map[string]*runSet{"A": a, "B": b} {
		h := s.Header
		fmt.Printf("# %s: commit %s, %s, nproc %d, GOMAXPROCS %d, journal on %s, seed %d, %.0f s, %s\n",
			side, h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.JournalFS, h.Seed, h.Seconds, h.When)
	}
	code := 0
	for _, s := range []*runSet{a, b} {
		for _, r := range s.Runs {
			if r.Failed != 0 {
				fmt.Printf("# %s: %d of %d operations failed\n", r.Workload, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	fmt.Printf("%-14s %-22s %5s %36s %36s %8s %6s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(w.name, def.name), b.values(w.name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(def, va, vb)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-14s %-22s %5s %36s %36s %+7.1f%% %5.0f%%  %s\n", w.name, def.name, def.unit,
				quartileString(va), quartileString(vb), 100*worse, 100*def.bound, v)
		}
	}
	return code
}

func quartileString(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(vs), q1, q3)
}
