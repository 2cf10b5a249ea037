package obs

import (
	"bufio"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Quantile(p); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", p, got)
		}
	}
	h.Observe(37 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 1 || s.Max != uint64(37*time.Microsecond) {
		t.Fatalf("single sample snapshot: %+v", s)
	}
	// With one sample every quantile is that sample, clamped to max.
	for _, p := range []float64{0, 50, 99, 99.9, 100} {
		if got := h.Quantile(p); got != 37*time.Microsecond {
			t.Errorf("single-sample Quantile(%v) = %v, want 37µs", p, got)
		}
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clock skew on the caller's side: counts as 0
	s := h.Snapshot()
	if s.Count != 2 || s.Buckets[0] != 2 || s.Max != 0 {
		t.Fatalf("zero/negative observations: %+v", s)
	}
	if got := h.Quantile(100); got != 0 {
		t.Errorf("Quantile(100) = %v, want 0", got)
	}
}

// TestHistogramObserveNIsNObserves: ObserveN(d, n) leaves the snapshot
// n Observe(d) calls leave — buckets, count, sum and max — for values
// spread over several buckets, zero and a negative one among them; a
// count of zero or less records nothing; and it allocates nothing.
func TestHistogramObserveNIsNObserves(t *testing.T) {
	ds := []time.Duration{-time.Second, 0, 1, 3, 700, 37 * time.Microsecond, 5 * time.Millisecond}
	for _, n := range []int{1, 3, 1000} {
		var one, many Histogram
		for _, d := range ds {
			many.ObserveN(d, n)
			for i := 0; i < n; i++ {
				one.Observe(d)
			}
		}
		if got, want := many.Snapshot(), one.Snapshot(); got != want {
			t.Errorf("n=%d: ObserveN left %+v, %d Observe calls %+v", n, got, n, want)
		}
	}

	var h Histogram
	h.Observe(42)
	want := h.Snapshot()
	h.ObserveN(time.Hour, 0)
	h.ObserveN(time.Hour, -3)
	if got := h.Snapshot(); got != want {
		t.Errorf("ObserveN with n <= 0 changed the histogram: %+v, want %+v", got, want)
	}

	if allocs := testing.AllocsPerRun(1000, func() { h.ObserveN(700, 16) }); allocs != 0 {
		t.Errorf("ObserveN: %.1f allocs/op, want 0", allocs)
	}
}

// TestHistogramQuantileWithinOneBucket is the acceptance test for the
// bucketed representation: against an exact sorted-sample percentile,
// the histogram's answer must land within one power-of-two bucket —
// i.e. exact <= bucketed <= 2*exact (modulo the max clamp) — across
// distributions with very different shapes.
func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() time.Duration{
		// Uniform microseconds-to-milliseconds: a flat spread.
		"uniform": func() time.Duration {
			return time.Duration(1e3 + rng.Int63n(1e6))
		},
		// Exponential-ish long tail: the latency shape p99s exist for.
		"longtail": func() time.Duration {
			d := time.Duration(1e4 * (1 + rng.ExpFloat64()*20))
			return d
		},
		// Bimodal: fast cache hits plus slow fsyncs.
		"bimodal": func() time.Duration {
			if rng.Intn(10) == 0 {
				return time.Duration(5e6 + rng.Int63n(5e6))
			}
			return time.Duration(100 + rng.Int63n(1000))
		},
	}
	for name, draw := range shapes {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			samples := make([]time.Duration, 20000)
			for i := range samples {
				samples[i] = draw()
				h.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, p := range []float64{50, 90, 99, 99.9, 100} {
				rank := int(float64(len(samples))*p/100+0.5) - 1
				if rank < 0 {
					rank = 0
				}
				if rank >= len(samples) {
					rank = len(samples) - 1
				}
				exact := samples[rank]
				got := h.Quantile(p)
				if got < exact/2 || got > 2*exact {
					t.Errorf("p%v: bucketed %v vs exact %v — off by more than one bucket", p, got, exact)
				}
			}
			if h.Quantile(100) != samples[len(samples)-1] {
				t.Errorf("p100 = %v, want exact max %v", h.Quantile(100), samples[len(samples)-1])
			}
		})
	}
}

// TestObserveAllocFree pins the hot-path contract: recording a sample
// must not allocate, so instrumentation cannot change the alloc guards
// on Lookup and ApplyBatch.
func TestObserveAllocFree(t *testing.T) {
	var h Histogram
	d := 123 * time.Microsecond
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(d) }); allocs != 0 {
		t.Errorf("Observe allocates %.1f objects per call, want 0", allocs)
	}
	c := &Counter{}
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Errorf("Counter.Inc allocates %.1f objects per call, want 0", allocs)
	}
	g := &Gauge{}
	if allocs := testing.AllocsPerRun(1000, func() { g.Add(1) }); allocs != 0 {
		t.Errorf("Gauge.Add allocates %.1f objects per call, want 0", allocs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var cum uint64
	for _, c := range s.Buckets {
		cum += c
	}
	if cum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", cum, workers*per)
	}
}

func TestRegistryExport(t *testing.T) {
	r := New()
	r.Counter("ftnet_z_total", "last alphabetically").Add(3)
	r.Gauge("ftnet_a_gauge", "first alphabetically").Set(-2)
	v := r.HistogramVec("ftnet_req_seconds", "per route", "route")
	v.With("phi").Observe(time.Millisecond)
	v.With("phi").Observe(2 * time.Millisecond)
	v.With("stats").Observe(time.Microsecond)
	r.Histogram("ftnet_pause_seconds", "unlabeled").Observe(time.Second)

	e := r.Export()
	if len(e.Counters) != 1 || e.Counters[0].Value != 3 {
		t.Fatalf("counters: %+v", e.Counters)
	}
	if len(e.Gauges) != 1 || e.Gauges[0].Value != -2 {
		t.Fatalf("gauges: %+v", e.Gauges)
	}
	if len(e.Histograms) != 3 {
		t.Fatalf("histograms: %+v", e.Histograms)
	}
	h, ok := e.Find("ftnet_req_seconds", "route=phi")
	if !ok || h.Count != 2 || h.MaxNS != float64(2*time.Millisecond) {
		t.Fatalf("Find(req, phi): %+v, %v", h, ok)
	}
	if _, ok := e.Find("ftnet_req_seconds", "route=nope"); ok {
		t.Error("found a histogram for an unregistered label")
	}
	if _, ok := e.Find("ftnet_pause_seconds", ""); !ok {
		t.Error("unlabeled histogram not found")
	}

	// Same metric requested again: same pointer, not a new child.
	if v.With("phi").Count() != 2 {
		t.Error("HistogramVec.With did not return the existing child")
	}
}

// TestWritePrometheus checks the exposition invariants a scraper
// relies on: one TYPE line per family, cumulative non-decreasing
// buckets ending in +Inf, and _count equal to the +Inf bucket.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("ftnet_events_total", "events").Add(7)
	v := r.HistogramVec("ftnet_req_seconds", "per route", "route")
	for i := 0; i < 100; i++ {
		v.With("phi").Observe(time.Duration(i) * 50 * time.Microsecond)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	if !strings.Contains(out, "# TYPE ftnet_events_total counter") ||
		!strings.Contains(out, "ftnet_events_total 7") {
		t.Fatalf("counter exposition missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE ftnet_req_seconds histogram") {
		t.Fatalf("histogram TYPE missing:\n%s", out)
	}
	if !strings.Contains(out, `ftnet_req_seconds_bucket{route="phi",le="+Inf"} 100`) {
		t.Fatalf("+Inf bucket missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, `ftnet_req_seconds_count{route="phi"} 100`) {
		t.Fatalf("_count missing or wrong:\n%s", out)
	}
	// Cumulative buckets never decrease.
	last := int64(-1)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "ftnet_req_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmtSscan(line, &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts decreased: %q after %d", line, last)
		}
		last = n
	}
}

// fmtSscan pulls the trailing integer off an exposition line.
func fmtSscan(line string, n *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	v, err := parseInt(line[i+1:])
	*n = v
	return 1, err
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, &parseError{s}
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

type parseError struct{ s string }

func (e *parseError) Error() string { return "not an integer: " + e.s }

func TestRegistryReRegisterPanics(t *testing.T) {
	r := New()
	r.Counter("ftnet_x", "a counter")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a histogram did not panic")
		}
	}()
	r.Histogram("ftnet_x", "now a histogram")
}
