package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestExtendedExperimentsRegistered(t *testing.T) {
	for _, id := range []string{"M1", "M2", "M3", "A1", "A2", "A3", "A4", "S3", "S4", "S5", "S6", "T6"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("extended experiment %s not registered", id)
		}
	}
	if len(AllExtended()) != len(All())+12 {
		t.Errorf("AllExtended size %d", len(AllExtended()))
	}
}

func TestExtendedExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every extended experiment")
	}
	all := append(extended(), extendedMore()...)
	all = append(all, extendedFinal()...)
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestA1AblationShowsTightness(t *testing.T) {
	var buf bytes.Buffer
	if err := A1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every truncated row must report failures > 0; every full row 0.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	checkedRows := 0
	for _, ln := range lines[1:] {
		fields := strings.Fields(ln)
		if len(fields) < 3 {
			continue
		}
		var failures int
		if _, err := fmt.Sscan(fields[len(fields)-1], &failures); err != nil {
			continue
		}
		checkedRows++
		truncated := strings.Contains(ln, "drop")
		if truncated && failures == 0 {
			t.Errorf("truncated range survived, tightness not shown: %s", ln)
		}
		if !truncated && failures != 0 {
			t.Errorf("full range failed: %s", ln)
		}
	}
	if checkedRows < 6 {
		t.Fatalf("too few parsed rows (%d):\n%s", checkedRows, out)
	}
}

func TestM2ConnectivityValues(t *testing.T) {
	var buf bytes.Buffer
	if err := M2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Known theory: kappa(B_{2,h}) = 2 (nodes 0 and 2^h-1 have degree 2),
	// kappa(SE_h) = 1 (node 0 has degree 1), kappa(B_{m,3}) = 2m-2.
	for _, want := range []string{"B_{2,3}\t", "SE_3"} {
		if !strings.Contains(out, strings.ReplaceAll(want, "\t", "")) {
			t.Errorf("M2 missing %q:\n%s", want, out)
		}
	}
	for _, ln := range strings.Split(out, "\n") {
		f := strings.Fields(ln)
		if len(f) < 3 {
			continue
		}
		switch {
		case strings.HasPrefix(f[0], "B_{2,"):
			if f[1] != "2" {
				t.Errorf("kappa(%s) = %s, want 2", f[0], f[1])
			}
		case strings.HasPrefix(f[0], "SE_"):
			if f[1] != "1" {
				t.Errorf("kappa(%s) = %s, want 1", f[0], f[1])
			}
		case f[0] == "B_{3,3}":
			if f[1] != "4" {
				t.Errorf("kappa(B_{3,3}) = %s, want 2m-2 = 4", f[1])
			}
		case f[0] == "B_{4,3}":
			if f[1] != "6" {
				t.Errorf("kappa(B_{4,3}) = %s, want 2m-2 = 6", f[1])
			}
		}
	}
}

func TestS3DilationOne(t *testing.T) {
	var buf bytes.Buffer
	if err := S3(&buf); err != nil {
		t.Fatal(err)
	}
	// Reconfiguration must not slow the permutation beyond a small
	// constant (dilation 1; congestion can differ slightly because host
	// edges are shared differently).
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		var h, k, ct, ch int
		var ratio float64
		if n, _ := fmt.Sscan(ln, &h, &k, &ct, &ch, &ratio); n == 5 {
			if ratio > 1.5 {
				t.Errorf("h=%d k=%d: reconfigured ratio %.2f too high", h, k, ratio)
			}
		}
	}
}
