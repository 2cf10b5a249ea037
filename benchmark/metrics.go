package main

import (
	"bytes"
	"encoding/json"
)

// The catalogue of what the benchmark prints. BENCHMARK.json at the
// root of the repository repeats the names, units, directions and
// bounds; the smoke test fails when the two disagree.

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	moves  string  // per-layer only: the end-to-end metric@workload it should move
}

// The bounds are the widest the driver admits. The box this was
// written on runs the same arithmetic loop 30 % faster or slower from
// one minute to the next, and run-to-run spreads of these metrics reach
// 5 to 15 % with it; a tighter bound would call that a regression.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "lookups_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "lookup_rtt_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "writes_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "write_rtt_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "recover_records_per_s", unit: "1/s", better: "higher", bound: 0.25},
}

const (
	readAxes  = "lookups_per_s, lookup_rtt_p50_us @ read-direct and read-proxy"
	writeAxes = "writes_per_s, write_rtt_p50_us @ write-durable"
)

// A per-layer metric's layer is the prefix of its name, which is the
// name of the internal/ package it prices.
var perLayer = []metricDef{
	{name: "ft.phi_ns", unit: "ns", better: "lower", moves: "lookups_per_s@read-direct (tiny share)"},
	{name: "ft.new_mapping_ns", unit: "ns", better: "lower", moves: "writes_per_s@mixed-storm (one build per unique pattern)"},

	{name: "fleet.instance_lookup_ns", unit: "ns", better: "lower", moves: "lookups_per_s@read-direct"},
	{name: "fleet.manager_lookup_ns", unit: "ns", better: "lower", moves: "lookups_per_s@read-direct"},
	{name: "fleet.manager_lookup_batch16_ns", unit: "ns", better: "lower", moves: "lookups_per_s@read-direct"},
	{name: "fleet.apply_batch_ns", unit: "ns", better: "lower", moves: "writes_per_s@write-durable"},
	{name: "fleet.apply_batch_unique_ns", unit: "ns", better: "lower", moves: "writes_per_s@mixed-storm"},
	{name: "fleet.apply_batch_allocs", unit: "count", better: "lower", moves: "writes_per_s@write-durable and @mixed-storm"},
	{name: "fleet.cache_hit_ratio", unit: "ratio", better: "higher", moves: "writes_per_s@write-durable and @mixed-storm; deleting the cache must lower neither"},
	{name: "fleet.recover_ns_per_record", unit: "ns", better: "lower", moves: "recover_records_per_s"},

	{name: "commit.append_mean_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "commit.fsync_wait_mean_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "commit.publish_mean_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "commit.fanout_mean_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "commit.fanout_lag_p50_us", unit: "us", better: "lower", moves: writeAxes},

	{name: "journal.encode_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "journal.append_sync_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "journal.bytes_per_record", unit: "bytes", better: "lower", moves: writeAxes},
	{name: "journal.syncs_per_record", unit: "ratio", better: "lower", moves: writeAxes},
	{name: "journal.disk_syncs_per_record", unit: "ratio", better: "lower", moves: "informational: the checkout's own disk"},
	{name: "journal.disk_fsync_us", unit: "us", better: "lower", moves: "informational: the checkout's own disk"},

	{name: "wire.codec_ns_per_frame", unit: "ns", better: "lower", moves: readAxes},
	{name: "wire.rtt_single_ns", unit: "ns", better: "lower", moves: readAxes},
	{name: "wire.rtt_batch16_ns", unit: "ns", better: "lower", moves: readAxes},
	{name: "wire.apply_rtt_ns", unit: "ns", better: "lower", moves: "write_rtt_p50_us@write-durable"},
	{name: "wire.pipelined_ns_per_frame", unit: "ns", better: "lower", moves: readAxes},
	{name: "wire.flush_frames_mean", unit: "frames", better: "higher", moves: readAxes},
	{name: "wire.bytes_per_lookup", unit: "bytes", better: "lower", moves: readAxes},
	{name: "wire.allocs_per_frame", unit: "count", better: "lower", moves: readAxes},
	{name: "wire.rtt_p99_us", unit: "us", better: "lower", moves: readAxes},
	{name: "wire.rtt_top_us", unit: "us", better: "lower", moves: readAxes},

	{name: "proxy.hop_ns", unit: "ns", better: "lower", moves: "lookup_rtt_p50_us@read-proxy only"},
	{name: "proxy.request_mean_ns", unit: "ns", better: "lower", moves: "lookup_rtt_p50_us@read-proxy only"},
	{name: "proxy.redirects", unit: "count", better: "lower", moves: "expect 0 on a steady ring"},
	{name: "proxy.misroutes", unit: "count", better: "lower", moves: "expect 0 on a steady ring"},
	{name: "proxy.upstream_errors", unit: "count", better: "lower", moves: "expect 0 on a steady ring"},
	{name: "proxy.cost_ratio", unit: "ratio", better: "lower", moves: "lookups_per_s@read-proxy only"},
	{name: "shard.owner_ns", unit: "ns", better: "lower", moves: "lookups_per_s@read-proxy only"},

	{name: "obs.observe_ns", unit: "ns", better: "lower", moves: "every throughput metric, slightly"},

	{name: "ladder.read_wire_self_ns", unit: "ns", better: "lower", moves: readAxes},
	{name: "ladder.read_manager_self_ns", unit: "ns", better: "lower", moves: readAxes},
	{name: "ladder.read_instance_self_ns", unit: "ns", better: "lower", moves: readAxes},
	{name: "ladder.read_mapping_ns", unit: "ns", better: "lower", moves: readAxes},
	{name: "ladder.write_wire_self_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "ladder.write_manager_ns", unit: "ns", better: "lower", moves: writeAxes},
	{name: "ladder.write_mapping_ns", unit: "ns", better: "lower", moves: writeAxes},

	{name: "bench.gen_ns_per_frame", unit: "ns", better: "lower", moves: "none: the benchmark's own cost"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower", moves: "none: the benchmark's own cost"},
}

// absent is the value printed in the result line for a per-layer
// metric whose program-side counter no longer exists; the table shows
// the word instead.
const absent = -1.0

type measurement struct {
	value float64
	note  string // sample count and the like, for the table only
}

// metricSet is one run's output, keyed by metric name.
type metricSet map[string]measurement

func (m metricSet) set(name string, v float64) { m[name] = measurement{value: v} }

func (m metricSet) setNote(name string, v float64, note string) {
	m[name] = measurement{value: v, note: note}
}

// runSeconds is the --seconds the driver passes: the length the phase
// schedules were sized for.
const runSeconds = 18

// manifestJSON renders the catalogue as BENCHMARK.json.
func manifestJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, metric{d.name, d.unit, d.better, &d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // only strings and numbers are encoded
	}
	return buf.Bytes()
}
