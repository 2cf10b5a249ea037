package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftnet/internal/obs"
)

// These tests pin the observability layer's two contracts: the metrics
// are actually recorded at every wired point (request latency, commit
// stages, replication lag, compaction pause), and recording them costs
// the hot paths nothing (the alloc guards from the ISSUE's acceptance
// criteria: Lookup 0 allocs/op, ApplyBatch <= 3 allocs/op with
// observability enabled).

// TestHotPathAllocBudgetsWithObservability measures the absolute alloc
// budgets through the full manager path — commit pipeline stage timers
// and all — not just the Instance shortcut the scale guards use.
func TestHotPathAllocBudgetsWithObservability(t *testing.T) {
	m := NewManager(Options{Metrics: obs.New()})
	if _, err := m.Create("i0", Spec{Kind: KindDeBruijn, M: 2, H: 14, K: 8}); err != nil {
		t.Fatal(err)
	}
	fault, repair := applyScalePair()
	pair := func() {
		if _, err := m.EventBatch("i0", fault); err != nil {
			t.Fatal(err)
		}
		if _, err := m.EventBatch("i0", repair); err != nil {
			t.Fatal(err)
		}
	}
	pair() // warm the commit log's tail
	if allocs := testing.AllocsPerRun(50, pair) / 2; allocs > 3 {
		t.Errorf("ApplyBatch costs %.1f allocs/op with observability enabled, budget is 3", allocs)
	}
	if _, err := m.EventBatch("i0", fault); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Lookup("i0", 1<<14-1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Lookup costs %.1f allocs/op with observability enabled, want 0", allocs)
	}

	// The stage histograms saw every one of those commits.
	e := m.Metrics().Export()
	h, ok := e.Find("ftnet_commit_append_seconds", "")
	if !ok || h.Count == 0 {
		t.Fatalf("commit stage histogram empty after the run: %+v (ok=%v)", h, ok)
	}
}

// TestRequestLatencyMiddleware drives a few routes through the HTTP
// handler and checks the per-route histograms and the in-flight gauge
// land in /v1/stats and /metrics.
func TestRequestLatencyMiddleware(t *testing.T) {
	m := NewManager(Options{})
	t.Cleanup(func() { m.Close() })
	srv := httptest.NewServer(NewHTTPHandler(m))
	t.Cleanup(srv.Close)

	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	post("/v1/instances", `{"id":"a","spec":{"kind":"debruijn","m":2,"h":6,"k":4}}`, http.StatusCreated)
	post("/v1/instances/a/events", `{"kind":"fault","node":1}`, http.StatusOK)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/instances/a/phi?x=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Obs == nil {
		t.Fatal("/v1/stats has no obs section")
	}
	if h, ok := stats.Obs.Find("ftnet_http_request_seconds", "route=phi"); !ok || h.Count != 3 {
		t.Errorf("phi route histogram: %+v (ok=%v), want count 3", h, ok)
	}
	if h, ok := stats.Obs.Find("ftnet_http_request_seconds", "route=create"); !ok || h.Count != 1 {
		t.Errorf("create route histogram: %+v (ok=%v), want count 1", h, ok)
	}
	// The stats request itself was in flight while the gauge was read.
	if v, ok := stats.Obs.FindGauge("ftnet_http_inflight"); !ok || v < 1 {
		t.Errorf("inflight gauge = %d (ok=%v), want >= 1", v, ok)
	}

	// And the same families appear on /metrics as cumulative buckets.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := string(raw)
	for _, want := range []string{
		"# TYPE ftnet_http_request_seconds histogram",
		`ftnet_http_request_seconds_bucket{route="phi",le="+Inf"} 3`,
		"# TYPE ftnet_commit_append_seconds histogram",
		"# TYPE ftnet_http_inflight gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFollowerReplicationLagMetrics replicates a small stream and
// checks the lag gauge converges to zero and the entry-age histogram
// saw every live (timestamped) entry.
func TestFollowerReplicationLagMetrics(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	srv := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(srv.Close)

	fm, f := startFollower(t, srv.URL)

	if _, err := leader.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 6, K: 4}); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if _, err := leader.Event("a", Event{Kind: EventFault, Node: n}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, leader, fm, 10*time.Second)

	// Wait for a post-convergence stream event (entry or heartbeat) so
	// the gauge reflects the converged position, then check the stats.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Stats()
		if st.LeaderSeq >= leader.pipe.log.LastSeq() && st.LagSeqs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	e := fm.Metrics().Export()
	if v, ok := e.FindGauge("ftnet_replication_lag_seqs"); !ok || v != 0 {
		t.Errorf("replication lag gauge = %d (ok=%v), want 0", v, ok)
	}
	age, ok := e.Find("ftnet_replication_entry_age_seconds", "")
	if !ok || age.Count != 5 { // 1 create + 4 events, all live and timestamped
		t.Errorf("entry age histogram: %+v (ok=%v), want count 5", age, ok)
	}
	if ok && time.Duration(age.MaxNS) > time.Minute {
		t.Errorf("entry age max %v is implausible for a local stream", time.Duration(age.MaxNS))
	}
}

// TestCompactionPauseHistogram pins that Compact records its pause.
func TestCompactionPauseHistogram(t *testing.T) {
	m := bootDaemon(t, DaemonConfig{}).mgr
	if _, err := m.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 6, K: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	e := m.Metrics().Export()
	if h, ok := e.Find("ftnet_compaction_pause_seconds", ""); !ok || h.Count != 1 {
		t.Errorf("compaction pause histogram: %+v (ok=%v), want count 1", h, ok)
	}
}
