// Package obs is the dependency-free metrics core of the
// reconfiguration service: lock-free latency histograms, counters and
// gauges behind a named registry, exported as hand-rolled Prometheus
// text and as a structured JSON section of /v1/stats.
//
// The design constraint is the hot path: Lookup is 0 allocs/op and
// ApplyBatch is a handful, and instrumenting them must not change
// that. Every recording operation is a few atomic adds — no locks, no
// allocation, no map lookups (callers resolve metrics once, at wiring
// time, and keep the pointer). Histograms bucket by powers of two
// (bucket i holds durations whose nanosecond count has i significant
// bits, i.e. [2^(i-1), 2^i)), so Observe is one bits.Len64 plus four
// atomic operations, and a quantile read is never off by more than one
// bucket (a factor of two) from the exact sorted-sample quantile —
// plenty for p99 regression gating, where regressions of interest are
// multiples, not percents.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the histogram resolution: bucket NumBuckets-1 absorbs
// everything at or above 2^(NumBuckets-2) ns (~4.6 minutes) — far past
// any latency this service should ever record, while keeping the
// per-histogram footprint at a few hundred bytes.
const NumBuckets = 40

// Histogram is a lock-free latency histogram with power-of-two
// buckets. The zero value is ready to use; all methods are safe for
// concurrent use. Observe never allocates.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps a nanosecond value to its bucket index: the number of
// significant bits, clamped to the top bucket. Zero lands in bucket 0.
func bucketOf(ns uint64) int {
	i := bits.Len64(ns)
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Observe records one duration. Negative durations (clock weirdness on
// the caller's side) count as zero rather than wrapping.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same duration at the cost of
// one: what a batch whose members share one timing (the frames of one
// drain pass, the writes of one commit round) records. n <= 0 records
// nothing.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketOf(ns)].Add(uint64(n))
	h.count.Add(uint64(n))
	h.sum.Add(ns * uint64(n))
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns a point-in-time copy of the histogram. Under
// concurrent Observe calls the fields may trail each other slightly
// (like any stats counter); quantiles clamp rather than misbehave.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile is shorthand for Snapshot().Quantile(p).
func (h *Histogram) Quantile(p float64) time.Duration { return h.Snapshot().Quantile(p) }

// HistSnapshot is an immutable copy of a Histogram's state.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64 // ns
	Max     uint64 // ns
	Buckets [NumBuckets]uint64
}

// Quantile returns the p-th percentile (0 <= p <= 100) of the bucketed
// distribution: the upper bound of the bucket the nearest-rank sample
// falls in, clamped to the observed maximum. The result is within one
// bucket (a factor of two) of the exact sorted-sample percentile.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	// Sum the buckets rather than trusting Count: under concurrent
	// Observe calls Count may lead the bucket increments briefly, and a
	// rank past the buckets' total would fall off the end.
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			upper := upperNS(i)
			if s.Max > 0 && upper > s.Max {
				upper = s.Max
			}
			return time.Duration(upper)
		}
	}
	return time.Duration(s.Max)
}

// upperNS is the inclusive nanosecond upper bound of bucket i.
func upperNS(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return 1<<uint(i) - 1
}

// Counter is a monotonically increasing counter. The zero value is
// ready to use.
type Counter struct{ n atomic.Uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous signed value. The zero value is ready to
// use.
type Gauge struct{ n atomic.Int64 }

// Add moves the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// metricKind tags a family's metric type for export.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one named metric family: a fixed kind, an optional label
// key, and the labeled children in registration order (the "" label is
// the unlabeled singleton).
type family struct {
	name     string
	help     string
	kind     metricKind
	labelKey string

	order      []string // label values in first-seen order
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Registry names and owns a set of metric families. Registration
// (Counter/Gauge/Histogram/HistogramVec and Vec.With) takes a lock and
// is meant for wiring time; the returned metric pointers are then used
// directly on hot paths with no registry involvement. Export walks
// families in name order so /metrics and /v1/stats are stable.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted lazily at export
	sorted   bool
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the named family, creating it with the given shape on
// first use. Re-registering an existing name with a different kind or
// label key panics: that is a wiring bug, not a runtime condition.
func (r *Registry) lookup(name, help string, kind metricKind, labelKey string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind, labelKey: labelKey,
			counters:   make(map[string]*Counter),
			gauges:     make(map[string]*Gauge),
			histograms: make(map[string]*Histogram),
		}
		r.families[name] = f
		r.sorted = false
		return f
	}
	if f.kind != kind || f.labelKey != labelKey {
		panic("obs: metric " + name + " re-registered with a different kind or label key")
	}
	return f
}

// child returns the metric for one label value, creating it on first
// use; caller passes the family's lock via r.mu (lookup callers hold
// nothing, so take it here).
func (r *Registry) childHistogram(f *family, label string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := f.histograms[label]
	if !ok {
		h = &Histogram{}
		f.histograms[label] = h
		f.order = append(f.order, label)
	}
	return h
}

// Counter returns the named (unlabeled) counter, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := f.counters[""]
	if !ok {
		c = &Counter{}
		f.counters[""] = c
		f.order = append(f.order, "")
	}
	return c
}

// Gauge returns the named (unlabeled) gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := f.gauges[""]
	if !ok {
		g = &Gauge{}
		f.gauges[""] = g
		f.order = append(f.order, "")
	}
	return g
}

// Histogram returns the named (unlabeled) histogram, creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.lookup(name, help, kindHistogram, "")
	return r.childHistogram(f, "")
}

// HistogramVec is a histogram family keyed by one label (e.g. the HTTP
// route). Resolve children with With at wiring time and keep the
// pointers; With takes the registry lock.
type HistogramVec struct {
	r *Registry
	f *family
}

// HistogramVec returns the named labeled histogram family.
func (r *Registry) HistogramVec(name, help, labelKey string) *HistogramVec {
	return &HistogramVec{r: r, f: r.lookup(name, help, kindHistogram, labelKey)}
}

// With returns the child histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(label string) *Histogram {
	return v.r.childHistogram(v.f, label)
}
