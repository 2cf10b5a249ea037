package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
	"ftnet/internal/loadgen"
	"ftnet/internal/wire"
)

// wirePlane is a daemon's RPC plane as ftnetd serves it.
func wirePlane(m *fleet.Manager) fleettest.Server {
	return wire.NewServer(m, wire.ServerOptions{Metrics: m.Metrics()})
}

// TestRunAgainstInProcessDaemon points the load generator at an
// in-process ftnetd and checks the whole loop: create fleet, mixed
// traffic, merged report.
func TestRunAgainstInProcessDaemon(t *testing.T) {
	n := fleettest.Start(t, fleet.DaemonConfig{}, wirePlane)
	mgr, url, rpcAddr := n.Manager(), n.URL, n.RPCAddr
	cfg := config{Config: loadgen.Config{
		Addr:      url,
		RPCAddr:   rpcAddr,
		Instances: 3,
		Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2},
		Workers:   4,
		Requests:  600,
		Scenario:  loadgen.Scenario{EventFrac: 0.3, Batch: 1},
		Seed:      7,
	}}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"ftload: 600 ops", "throughput", "rpc lookups", "latency", "p99", "errors       0 transport, 0", "scenario custom"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}

	// The daemon must have seen the traffic the report claims.
	st := mgr.Stats()
	if st.Instances != 3 {
		t.Errorf("instances = %d, want 3", st.Instances)
	}
	if st.Lookups == 0 || st.Events == 0 {
		t.Errorf("daemon saw no traffic: %+v", st)
	}
	// Each lookup op resolved DefaultRPCLookupBatch targets.
	const width = loadgen.DefaultRPCLookupBatch
	if got := int(st.Lookups/width + st.Events + st.Rejected); got != cfg.Requests || st.Lookups%width != 0 {
		t.Errorf("daemon saw %d lookups, %d events and %d rejections, want %d ops of which lookups are %d wide",
			st.Lookups, st.Events, st.Rejected, cfg.Requests, width)
	}
}

// TestRunNamedScenario drives the burst-heavy preset: reconfiguration
// ops become atomic bursts, and every accepted burst advances its
// instance's epoch exactly once.
func TestRunNamedScenario(t *testing.T) {
	n := fleettest.Start(t, fleet.DaemonConfig{}, wirePlane)
	mgr, url, rpcAddr := n.Manager(), n.URL, n.RPCAddr
	cfg := config{
		Config: loadgen.Config{
			Addr:      url,
			RPCAddr:   rpcAddr,
			Instances: 2,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
			Workers:   4,
			Requests:  400,
			Seed:      11,
			IDPrefix:  "named",
		},
		scenario: "burst-heavy",
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "scenario burst-heavy") {
		t.Errorf("report missing scenario name:\n%s", out.String())
	}
	st := mgr.Stats()
	if st.Batches == 0 {
		t.Fatalf("no bursts applied: %+v", st)
	}
	if st.Events < st.Batches*uint64(loadgen.BurstHeavy.Batch) {
		t.Errorf("events %d < batches %d x %d: bursts not applied whole",
			st.Events, st.Batches, loadgen.BurstHeavy.Batch)
	}
	// Epochs count transitions: the sum over instances must equal the
	// accepted batch count.
	var epochs uint64
	for _, id := range cfg.InstanceIDs() {
		in, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("instance %s missing", id)
		}
		epochs += in.Info().Epoch
	}
	if epochs != st.Batches {
		t.Errorf("epoch sum %d != accepted batches %d", epochs, st.Batches)
	}

	if err := run(config{Config: cfg.Config, scenario: "tsunami"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(config{Config: loadgen.Config{Instances: 0, Workers: 1, Requests: 1,
		Scenario: loadgen.Mixed}}, &bytes.Buffer{}); err == nil {
		t.Error("zero instances accepted")
	}
	bad := config{Config: loadgen.Config{
		Addr: "http://127.0.0.1:0", Instances: 1, Workers: 1, Requests: 1,
		Spec:     fleet.Spec{Kind: "torus", H: 4, K: 1},
		Scenario: loadgen.Mixed,
	}}
	if err := run(bad, &bytes.Buffer{}); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestRunObsJSONArtifact runs write-storm with -obs-json and checks
// the emitted BENCH_service.json: valid schema, the gated families
// present, every value a positive nanosecond quantity.
func TestRunObsJSONArtifact(t *testing.T) {
	n := fleettest.Start(t, fleet.DaemonConfig{}, wirePlane)
	url, rpcAddr := n.URL, n.RPCAddr
	path := filepath.Join(t.TempDir(), "BENCH_service.json")
	cfg := config{
		Config: loadgen.Config{
			Addr:      url,
			RPCAddr:   rpcAddr,
			Instances: 2,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
			Workers:   4,
			Requests:  300,
			Seed:      13,
		},
		scenario: "write-storm",
		obsJSON:  path,
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "service SLO values") {
		t.Errorf("report missing the obs artifact line:\n%s", out.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art loadgen.ServiceArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact not valid JSON: %v\n%s", err, data)
	}
	if art.Kind != "service" || art.Scenario != "write-storm" {
		t.Fatalf("artifact header: kind=%q scenario=%q", art.Kind, art.Scenario)
	}
	families := map[string]bool{}
	for _, b := range art.Benchmarks {
		families[b.Family] = true
		unit := "ns"
		if b.Family == "lookups_per_sec" {
			unit = "ops/s"
		}
		if b.Unit != unit || b.Value <= 0 {
			t.Errorf("benchmark %s: value %v %s", b.Name, b.Value, b.Unit)
		}
	}
	for _, want := range []string{"request_p99", "fsync_p99", "lookup_rpc_p99", "lookups_per_sec"} {
		if !families[want] {
			t.Errorf("artifact missing family %q; has %v", want, families)
		}
	}
}
