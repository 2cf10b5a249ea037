package loadgen

import (
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/obs"
)

// TestScrapeObsAndBuildArtifact runs a small load with ScrapeObs, then
// checks the scraped export carries the server-side histograms and the
// distilled BENCH_service.json artifact has the gated families.
func TestScrapeObsAndBuildArtifact(t *testing.T) {
	_, url, rpcAddr, _ := startDaemon(t, fleet.DaemonConfig{})
	res, err := Run(Config{
		Addr:      url,
		RPCAddr:   rpcAddr,
		Instances: 2,
		Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
		Workers:   4,
		Requests:  200,
		Scenario:  WriteStorm,
		Seed:      5,
		IDPrefix:  "t-obs",
		ScrapeObs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Service == nil {
		t.Fatal("ScrapeObs set but Result.Service is nil")
	}
	frames, ok := res.Service.Find("ftnet_rpc_op_seconds", "op=lookup_batch")
	if !ok || int(frames.Count) != len(res.LookupLatencies) {
		t.Errorf("lookup_batch histogram count %d (ok=%v), client measured %d lookup ops", frames.Count, ok, len(res.LookupLatencies))
	}
	if _, ok := res.Service.Find("ftnet_commit_append_seconds", ""); !ok {
		t.Error("commit stage histograms missing from the scrape")
	}

	art := BuildServiceArtifact("write-storm", &res, res.Service, nil)
	if art.Kind != "service" || art.Scenario != "write-storm" {
		t.Fatalf("artifact header: %+v", art)
	}
	families := map[string]int{}
	for _, b := range art.Benchmarks {
		families[b.Family]++
		unit := "ns"
		if b.Family == "lookups_per_sec" {
			unit = "ops/s"
		}
		if b.Unit != unit {
			t.Errorf("%s: unit %q, want %s", b.Name, b.Unit, unit)
		}
		if b.Value <= 0 {
			t.Errorf("%s: non-positive value %v", b.Name, b.Value)
		}
	}
	for _, want := range []string{"request_p99", "rpc_op_p99", "lookup_rpc_p99", "lookups_per_sec"} {
		if families[want] == 0 {
			t.Errorf("no %s entries", want)
		}
	}
	// The manager is journal-less here, so the fsync wait histogram has
	// samples (the stage runs, near-zero) — and no compaction happened,
	// so that family must be absent, not zero.
	if families["compaction_pause_max"] != 0 {
		t.Error("compaction_pause_max emitted without a compaction")
	}
	if families["replication_lag_p99"] != 0 {
		t.Error("replication_lag_p99 emitted without a follower export")
	}

	// A follower export contributes the lag family.
	freg := obs.New()
	freg.Histogram("ftnet_replication_entry_age_seconds", "age").Observe(1)
	fexp := freg.Export()
	art = BuildServiceArtifact("write-storm", &res, res.Service, &fexp)
	found := false
	for _, b := range art.Benchmarks {
		if b.Family == "replication_lag_p99" {
			found = true
		}
	}
	if !found {
		t.Error("replication_lag_p99 missing with a follower export")
	}
}
