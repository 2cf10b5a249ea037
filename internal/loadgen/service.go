package loadgen

import (
	"fmt"
	"strings"

	"ftnet/internal/obs"
)

// This file is the CI-facing half of the observability layer: after a
// run, the daemon's /v1/stats obs section (request-latency, commit
// stage, replication-lag and compaction-pause histograms) is scraped
// and distilled into a BENCH_service.json artifact that ftbenchdiff
// gates against a committed baseline, the same way the Apply/Lookup
// micro-bench artifact is gated.

// ServiceBenchmark is one latency-valued entry of the service
// artifact. Value is in Unit (always "ns" here) — ftbenchdiff compares
// Value directly when Unit is set, instead of the ns_per_op column of
// the micro-bench artifacts.
type ServiceBenchmark struct {
	Name   string  `json:"name"`
	Family string  `json:"family"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// ServiceArtifact is the BENCH_service.json schema.
type ServiceArtifact struct {
	Kind       string             `json:"kind"` // "service"
	Scenario   string             `json:"scenario"`
	Benchmarks []ServiceBenchmark `json:"benchmarks"`
}

// FetchObs scrapes addr's /v1/stats and returns its obs section (nil
// when the daemon predates it).
func FetchObs(addr string) (*obs.Export, error) {
	st, err := control(addr).Stats()
	if err != nil {
		return nil, fmt.Errorf("loadgen: scrape %s/v1/stats: %w", addr, err)
	}
	return st.Obs, nil
}

// BuildServiceArtifact distills one run — the client-side Result plus
// the leader's (and optionally a follower's) obs exports — into the
// families the SLO gate watches:
//
//	request_p99              per-route request latency p99 (leader)
//	fsync_p99                commit durability-wait p99 (leader)
//	replication_lag_p99      applied-entry age p99 (follower)
//	compaction_pause_max     worst commits-gated pause (leader)
//	lookup_rpc_p99           client-observed RPC lookup op p99 (RPC runs)
//	rpc_op_p99               server-side RPC drain-pass residence p99 by op (RPC runs)
//	lookups_per_sec          resolved lookups per second (RPC runs; ops/s,
//	                         higher is better — ftbenchdiff flags drops)
//
// Families with no samples are omitted rather than emitted as zero, so
// a baseline diff never treats "didn't happen" as "infinitely fast".
// res may be nil (a scrape-only artifact).
func BuildServiceArtifact(scenario string, res *Result, leader, follower *obs.Export) ServiceArtifact {
	art := ServiceArtifact{Kind: "service", Scenario: scenario}
	add := func(name, family string, v float64, unit string) {
		art.Benchmarks = append(art.Benchmarks, ServiceBenchmark{
			Name: name, Family: family, Value: v, Unit: unit,
		})
	}
	if leader != nil {
		for _, h := range leader.Histograms {
			if h.Name != "ftnet_http_request_seconds" || h.Count == 0 {
				continue
			}
			route := strings.TrimPrefix(h.Label, "route=")
			add("request_p99/"+route, "request_p99", h.P99NS, "ns")
		}
		for _, h := range leader.Histograms {
			if h.Name != "ftnet_rpc_op_seconds" || h.Count == 0 {
				continue
			}
			op := strings.TrimPrefix(h.Label, "op=")
			add("rpc_op_p99/"+op, "rpc_op_p99", h.P99NS, "ns")
		}
		if h, ok := leader.Find("ftnet_commit_fsync_wait_seconds", ""); ok && h.Count > 0 {
			add("commit_fsync_wait_p99", "fsync_p99", h.P99NS, "ns")
		}
		if h, ok := leader.Find("ftnet_compaction_pause_seconds", ""); ok && h.Count > 0 {
			add("compaction_pause_max", "compaction_pause_max", h.MaxNS, "ns")
		}
	}
	if follower != nil {
		if h, ok := follower.Find("ftnet_replication_entry_age_seconds", ""); ok && h.Count > 0 {
			add("replication_entry_age_p99", "replication_lag_p99", h.P99NS, "ns")
		}
	}
	if res != nil && res.RPC {
		if len(res.LookupLatencies) > 0 {
			add("lookup_rpc_p99", "lookup_rpc_p99", float64(res.LookupPercentile(99)), "ns")
		}
		if res.Lookups > 0 {
			add("lookups_per_sec", "lookups_per_sec", res.LookupThroughput(), "ops/s")
		}
	}
	return art
}

// AppendFailover folds a partition-torture run's client-measured
// windows into a service artifact, as two more gateable families:
//
//	failover_downtime    leader kill to the promoted replica accepting
//	                     writes — the unavailability window
//	divergence_window    partition to kill: how long the old leader
//	                     acknowledged writes no replica had
func AppendFailover(art *ServiceArtifact, res FailoverResult) {
	art.Benchmarks = append(art.Benchmarks,
		ServiceBenchmark{Name: "failover_downtime", Family: "failover_downtime",
			Value: float64(res.FailoverDowntime), Unit: "ns"},
		ServiceBenchmark{Name: "divergence_window", Family: "divergence_window",
			Value: float64(res.DivergenceWindow), Unit: "ns"},
	)
}

// AppendCluster folds a scale-out run into a service artifact, as the
// families the shard SLO gates watch:
//
//	rebalance_pause          widest write-fence window of any migration
//	                         — how long a client's writes to one
//	                         instance stall during its handoff
//	cluster_lookups_per_sec  routed lookup throughput while the ring
//	                         changed underneath the storm (ops/s,
//	                         higher is better) — an HTTP run, routed by
//	                         the client
//	proxy_lookups_per_sec,   the same figure and the lookup p99 of an RPC
//	proxy_lookup_p99         run, which went through the ftproxy front
//	                         door: the proxy-plane families
func AppendCluster(art *ServiceArtifact, res ClusterResult) {
	add := func(family string, v float64, unit string) {
		art.Benchmarks = append(art.Benchmarks, ServiceBenchmark{Name: family, Family: family, Value: v, Unit: unit})
	}
	if res.PauseMax > 0 {
		add("rebalance_pause", float64(res.PauseMax), "ns")
	}
	if res.Storm.Lookups == 0 {
		return
	}
	if !res.Storm.RPC {
		add("cluster_lookups_per_sec", res.Storm.LookupThroughput(), "ops/s")
		return
	}
	add("proxy_lookups_per_sec", res.Storm.LookupThroughput(), "ops/s")
	add("proxy_lookup_p99", float64(res.Storm.LookupPercentile(99)), "ns")
}
