package loadgen

import (
	"testing"

	"ftnet/internal/fleet"
)

// TestRunRPCTransport drives the mixed scenario with the hot path on
// the binary RPC plane (control plane on JSON) and requires a clean
// run: zero transport errors, zero unexpected statuses, lookups
// resolved in vectorized batches, and every operation counted once.
func TestRunRPCTransport(t *testing.T) {
	d, url, rpcAddr, _ := startDaemon(t, fleet.DaemonConfig{})
	mgr := d.Manager()

	res, err := Run(Config{
		Addr:           url,
		Instances:      2,
		Spec:           fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
		Workers:        4,
		Requests:       400,
		Scenario:       Mixed,
		Seed:           7,
		IDPrefix:       "t-rpc",
		RPCAddr:        rpcAddr,
		RPCLookupBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != 0 {
		t.Fatalf("%d transport errors on a healthy loopback server", res.Transport)
	}
	if res.Errors != 0 {
		t.Fatalf("%d unexpected-status errors", res.Errors)
	}
	if res.Lookups == 0 || res.Batches == 0 {
		t.Fatalf("mixed RPC run drove no traffic: %+v", res)
	}
	// An op is one frame, however many targets it resolved.
	if got := res.Ops(); got != 400 {
		t.Errorf("ops = %d, want the 400 requested", got)
	}
	// Vectorized reads: each lookup op resolves RPCLookupBatch targets,
	// so resolved lookups must be a multiple of the batch width.
	if res.Lookups%8 != 0 {
		t.Errorf("lookups %d not a multiple of the batch width 8", res.Lookups)
	}
	if len(res.LookupLatencies) == 0 {
		t.Error("no lookup latency samples recorded")
	}
	if res.LookupThroughput() <= 0 {
		t.Errorf("non-positive lookup throughput %v", res.LookupThroughput())
	}

	// The server-side RPC histograms landed in the manager's registry,
	// so /v1/stats and /metrics cover the RPC plane too.
	exp := mgr.Metrics().Export()
	found := false
	for _, h := range exp.Histograms {
		if h.Name == "ftnet_rpc_op_seconds" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no ftnet_rpc_op_seconds samples in the manager registry")
	}

	// And the artifact builder picks up the RPC families.
	art := BuildServiceArtifact("mixed", &res, &exp, nil)
	var families []string
	for _, b := range art.Benchmarks {
		families = append(families, b.Family)
	}
	has := func(want string) bool {
		for _, f := range families {
			if f == want {
				return true
			}
		}
		return false
	}
	if !has("lookup_rpc_p99") || !has("lookups_per_sec") || !has("rpc_op_p99") {
		t.Errorf("artifact families %v missing the RPC entries", families)
	}
	for _, b := range art.Benchmarks {
		if b.Family == "lookups_per_sec" && b.Unit != "ops/s" {
			t.Errorf("lookups_per_sec unit %q, want ops/s", b.Unit)
		}
	}
}

// TestRunRPCScalarLookups pins the RPCLookupBatch<=1 path: scalar
// Lookup frames, still a clean run.
func TestRunRPCScalarLookups(t *testing.T) {
	_, url, rpcAddr, _ := startDaemon(t, fleet.DaemonConfig{})

	res, err := Run(Config{
		Addr:           url,
		Instances:      1,
		Spec:           fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2},
		Workers:        2,
		Requests:       100,
		Scenario:       ReadHeavy,
		Seed:           3,
		IDPrefix:       "t-rpc1",
		RPCAddr:        rpcAddr,
		RPCLookupBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != 0 || res.Errors != 0 {
		t.Fatalf("scalar RPC run: %d transport, %d errors", res.Transport, res.Errors)
	}
	if res.Lookups == 0 {
		t.Fatal("read-heavy run resolved no lookups")
	}
}
