package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestManifestMatchesCatalogue fails when BENCHMARK.json and the
// catalogue the program prints from disagree, or when the manifest
// breaks a limit the driver refuses a file for.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, manifestJSON()) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unit.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %v", d.name, d.unit, d.better, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smokeRun runs one workload with phases of 50 to 250 ms and checks
// what it prints against the catalogue.
func smokeRun(t *testing.T, journals, name string, trace bool, defs []metricDef) (runResult, resultLine) {
	t.Helper()
	def, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := runConfig{seed: 7, seconds: 0.45, trace: trace, outDir: filepath.Join(t.TempDir(), "out"), journalDir: journals, began: time.Now()}
	res, err := runWorkload(def, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed, first: %s", name, res.failed, res.attempted, res.firstErr)
	}
	var out bytes.Buffer
	if !printRun(&out, def, cfg, res) {
		t.Fatalf("%s: printRun reports failure", name)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(defs) {
		t.Fatalf("%s: result line %+v, want %d metrics and no failure", name, line, len(defs))
	}
	for _, d := range defs {
		rows := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) >= 3 && f[0] == d.name && f[2] == d.unit {
				rows++
			}
		}
		m, ok := line.Metrics[d.name]
		if rows != 1 || !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s printed on %d rows, in the result line %v as %+v", name, d.name, rows, ok, m)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want above zero", name, d.name, m.Value)
		}
	}
	return res, line
}

// TestSmoke runs all four workloads untraced and one of them traced,
// in one process and one journal directory as -runs does.
func TestSmoke(t *testing.T) {
	journals, err := journalRoot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(journals)
	prefixes := map[string][][]byte{}
	for _, w := range workloads {
		res, _ := smokeRun(t, journals, w.name, false, endToEnd)
		for _, p := range res.phases {
			if p.def.name == "saturation" {
				prefixes[w.name] = p.prefixes
			}
		}
	}

	// read-proxy must send what read-direct sends: every caller's first
	// frames, as encoded, are compared byte for byte.
	direct, proxied := prefixes["read-direct"], prefixes["read-proxy"]
	if len(direct) == 0 || len(direct) != len(proxied) {
		t.Fatalf("read-direct kept %d readers' frames, read-proxy %d", len(direct), len(proxied))
	}
	for i := range direct {
		if len(direct[i]) == 0 || !bytes.Equal(direct[i], proxied[i]) {
			t.Errorf("reader %d: read-direct and read-proxy sent different frames", i)
		}
	}

	// mixed-storm has readers and writers, so its traced run walks both
	// ladders.
	_, line := smokeRun(t, journals, "mixed-storm", true, perLayer)
	for name, m := range line.Metrics {
		if strings.HasPrefix(name, "ladder.") && m.Value == absent {
			t.Errorf("%s is absent: the ladder recorded no such rung", name)
		}
	}
	gen, pipelined := line.Metrics["bench.gen_ns_per_frame"].Value, line.Metrics["wire.pipelined_ns_per_frame"].Value
	if gen <= 0 || gen > pipelined/5 {
		t.Errorf("the generator and its check cost %.0f ns a frame, want under a fifth of the %.0f ns a pipelined frame takes", gen, pipelined)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) gives, which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20, 40, 80}, 12.5, 70},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{name: "lookups_per_s", better: "higher", bound: 0.10}
	rtt := metricDef{name: "lookup_rtt_p50_us", better: "lower", bound: 0.15}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{rate, []float64{100, 101, 102}, []float64{95, 96, 97}, "ok"},
		{rate, []float64{100, 101, 102}, []float64{85, 86, 87}, "regressed"},
		{rate, []float64{100, 101, 102}, []float64{150, 151, 152}, "ok"},
		{rtt, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, "regressed"},
		{rtt, []float64{10, 10.1, 10.2}, []float64{11, 11.1, 11.2}, "ok"},
		// A's own runs spread wider than the bound.
		{rate, []float64{80, 100, 120}, []float64{90, 95, 110}, "unresolved"},
		{rate, []float64{80, 100, 120}, []float64{60, 70, 75}, "regressed"},
		{rate, []float64{80, 100, 120}, []float64{130, 140, 150}, "ok"},
	} {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.def.name, c.a, c.b, got, c.want)
		}
	}
}
