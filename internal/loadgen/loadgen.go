// Package loadgen is the shared load driver for the ftnetd
// reconfiguration daemon: it creates a fleet of instances, drives them
// with a configurable mix of phi lookups and fault/repair bursts from
// concurrent workers, and reports throughput and latency percentiles.
// A run picks its data plane once — a cluster.Transport: the JSON API,
// the binary RPC plane, or a cluster.Client routing over either — and
// one driveLookup and one driveBatch serve every scenario over it; the
// control plane (creates, health, verification, scrapes) is always the
// JSON API.
//
// cmd/ftload wraps it on the command line; internal/experiments runs
// its named scenarios against an in-process daemon so service
// throughput is tracked like a paper figure.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/cluster"
	"ftnet/internal/fleet"
	"ftnet/internal/ft"
	"ftnet/internal/obs"
	"ftnet/internal/wire"
)

// Scenario names a traffic shape: what fraction of operations are
// reconfiguration events and how many events each reconfiguration op
// carries (one atomic burst of Batch events; Batch 1 is a random single
// event, Batch > 1 a whole rack). Writers > 0 switches to role-split mode: that
// many workers become dedicated writers issuing nothing but sustained
// events:batch bursts, every remaining worker issues nothing but
// lookups, and EventFrac is ignored — the shape that measures read
// latency while the write path storms.
type Scenario struct {
	Name      string
	EventFrac float64
	Batch     int
	Writers   int
}

// The named scenarios. ReadHeavy is the shape a fleet of
// mostly-healthy machines produces — almost pure lookups, the path the
// lock-free snapshot read serves. BurstHeavy models correlated
// failures (a rack at a time): a third of operations are multi-event
// bursts applied atomically. WriteStorm pins dedicated writers on
// back-to-back atomic bursts while the other workers measure lookup
// latency — the p99-under-write-storm figure the lock-free read path
// exists for. Mixed is the historical ftload default.
var (
	Mixed      = Scenario{Name: "mixed", EventFrac: 0.10, Batch: 1}
	ReadHeavy  = Scenario{Name: "read-heavy", EventFrac: 0.01, Batch: 1}
	BurstHeavy = Scenario{Name: "burst-heavy", EventFrac: 0.30, Batch: 4}
	WriteStorm = Scenario{Name: "write-storm", EventFrac: 1, Batch: 4, Writers: 2}
)

// Scenarios lists every named scenario.
func Scenarios() []Scenario { return []Scenario{Mixed, ReadHeavy, BurstHeavy, WriteStorm} }

// ByName returns the named scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Config describes one load run.
type Config struct {
	Addr      string // base URL of the daemon
	Instances int
	Spec      fleet.Spec
	Workers   int
	Requests  int // total operations (an atomic burst counts as one)
	Scenario  Scenario
	Seed      int64
	// IDPrefix prefixes the driven instance ids. It defaults to "load"
	// plus the scenario name, so different scenarios against one daemon
	// get their own instances: burst scenarios need rack-aligned fault
	// state, and leftovers from another scenario's traffic would make
	// whole-rack bursts permanently rejectable.
	IDPrefix string
	// ScrapeObs fills Result.Service with the daemon's /v1/stats obs
	// section after the run — the server-side histograms (request
	// latency by route, commit stages, compaction pauses) the
	// BENCH_service.json artifact is built from.
	ScrapeObs bool
	// RPCAddr switches the data plane: when non-empty, lookups and
	// event bursts travel the binary RPC plane at this TCP address
	// (host:port). The control plane — instance creation, health
	// checks, verification, stats scraping — stays on the JSON API at
	// Addr.
	RPCAddr string
	// RPCLookupBatch vectorizes RPC reads: each lookup op issues one
	// LookupBatch frame carrying this many targets (<= 1 issues single
	// Lookup frames; 0 selects DefaultRPCLookupBatch). Every resolved
	// target counts as one lookup.
	RPCLookupBatch int
	// RPCConns sets the wire client's connection pool size (0 selects
	// a small pool so the run exercises pipelining, not a
	// connection-per-worker).
	RPCConns int
}

// DefaultRPCLookupBatch is the vector width of RPC-plane lookups when
// Config.RPCLookupBatch is unset.
const DefaultRPCLookupBatch = 16

// Validate checks the run parameters.
func (cfg Config) Validate() error {
	if cfg.Instances < 1 || cfg.Workers < 1 || cfg.Requests < 1 {
		return fmt.Errorf("loadgen: instances, workers and requests must be positive")
	}
	if cfg.Scenario.Batch < 1 {
		return fmt.Errorf("loadgen: scenario batch must be >= 1")
	}
	if cfg.Scenario.EventFrac < 0 || cfg.Scenario.EventFrac > 1 {
		return fmt.Errorf("loadgen: event fraction %v outside [0,1]", cfg.Scenario.EventFrac)
	}
	if cfg.Scenario.Writers < 0 {
		return fmt.Errorf("loadgen: writer count %d negative", cfg.Scenario.Writers)
	}
	if cfg.Scenario.Writers > 0 && cfg.Scenario.Writers >= cfg.Workers {
		return fmt.Errorf("loadgen: %d dedicated writers leave no readers among %d workers",
			cfg.Scenario.Writers, cfg.Workers)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return err
	}
	if _, nHost := TargetHostSizes(cfg.Spec); cfg.Scenario.Batch > nHost {
		return fmt.Errorf("loadgen: burst size %d exceeds the %d host nodes", cfg.Scenario.Batch, nHost)
	}
	return nil
}

// Result is the merged measurement of one run. Both latency slices are
// sorted; LookupLatencies is the read-side subset, the distribution a
// write-storm run exists to measure.
type Result struct {
	Lookups         int  // successful phi queries
	Events          int  // individual events applied (bursts count each event)
	Batches         int  // accepted event transitions
	Rejected        int  // rejected transitions (budget/state enforcement)
	Errors          int  // unexpected application failures (bad status, not connection trouble)
	Transport       int  // connection-level failures: dial, reset, timeout
	RPC             bool // the run drove the binary RPC plane
	Elapsed         time.Duration
	Latencies       []time.Duration // every successful operation, sorted
	LookupLatencies []time.Duration // lookups only, sorted
	// Service is the daemon's server-side metrics snapshot (request,
	// commit-stage, lag and pause histograms), scraped after the run
	// when Config.ScrapeObs is set; nil otherwise.
	Service *obs.Export
}

// Ops returns the number of completed operations (lookups plus event
// transitions, accepted or rejected).
func (r Result) Ops() int { return r.Lookups + r.Batches + r.Rejected }

// Throughput returns completed operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops()) / r.Elapsed.Seconds()
}

// LookupThroughput returns resolved lookups per second — on the RPC
// plane a vectorized op resolves many, so this is the figure the
// lookups_per_sec SLO family records.
func (r Result) LookupThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Lookups) / r.Elapsed.Seconds()
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the
// latency distribution using nearest-rank.
func (r Result) Percentile(p float64) time.Duration {
	return percentile(r.Latencies, p)
}

// LookupPercentile returns the p-th percentile over lookups only: the
// read-side latency while (in a write-storm run) the write path is
// saturated.
func (r Result) LookupPercentile(p float64) time.Duration {
	return percentile(r.LookupLatencies, p)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// opStats accumulates one worker's measurements; workers keep their
// own and Run merges, so the hot loop takes no locks. Lookup latencies
// are kept apart from event latencies so the read-side distribution
// survives the merge.
type opStats struct {
	lookups    int
	events     int
	batches    int
	rejected   int
	errors     int
	transport  int
	eventLats  []time.Duration
	lookupLats []time.Duration
}

// InstanceIDs returns the ids a Run with this config creates and
// drives (applying the default IDPrefix rule), so follow-up probes —
// e.g. VerifyFollower — can name the same instances.
func (cfg Config) InstanceIDs() []string {
	prefix := cfg.IDPrefix
	if prefix == "" {
		prefix = "load"
		if cfg.Scenario.Name != "" {
			prefix += "-" + cfg.Scenario.Name
		}
	}
	ids := make([]string, cfg.Instances)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return ids
}

// Run executes the configured load against the daemon and merges the
// per-worker measurements.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "load"
		if cfg.Scenario.Name != "" {
			cfg.IDPrefix += "-" + cfg.Scenario.Name
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	ids, err := createFleet(client, cfg)
	if err != nil {
		return Result{}, err
	}

	t, lookupBatch, hangUp, err := cfg.dataPlane(cfg.RPCAddr, cluster.HTTP{Client: client, Base: cfg.Addr})
	if err != nil {
		return Result{}, err
	}
	defer hangUp()

	nTarget, nHost := TargetHostSizes(cfg.Spec)
	perWorker := make([]opStats, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		// Spread the request budget over workers; the first few absorb
		// the remainder.
		n := cfg.Requests / cfg.Workers
		if w < cfg.Requests%cfg.Workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			st := &perWorker[w]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			var scratch lookupScratch
			writer := w < cfg.Scenario.Writers // role-split mode: first workers are dedicated writers
			for i := 0; i < n; i++ {
				id := ids[rng.Intn(len(ids))]
				if writer || (cfg.Scenario.Writers == 0 && rng.Float64() < cfg.Scenario.EventFrac) {
					driveBatch(t, id, rng, nHost, cfg.Scenario.Batch, st, nil)
				} else {
					driveLookup(t, id, rng, nTarget, lookupBatch, &scratch, st)
				}
			}
		}(w, n)
	}
	wg.Wait()

	res := mergeStats(perWorker, time.Since(start))
	res.RPC = cfg.RPCAddr != ""
	if cfg.ScrapeObs {
		e, err := FetchObs(cfg.Addr)
		if err != nil {
			return res, err
		}
		res.Service = e
	}
	return res, nil
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// createFleet health-checks the daemon and creates the run's instances
// (tolerating ones left over from a prior run), returning their ids.
func createFleet(client *http.Client, cfg Config) ([]string, error) {
	resp, err := client.Get(cfg.Addr + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("loadgen: daemon unreachable: %v", err)
	}
	resp.Body.Close()

	ids := make([]string, cfg.Instances)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", cfg.IDPrefix, i)
		if err := createInstance(client, cfg.Addr, ids[i], cfg.Spec); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// createInstance creates one instance on the daemon at addr; one left
// over from a prior run (409) is as good.
func createInstance(client *http.Client, addr, id string, spec fleet.Spec) error {
	body, _ := json.Marshal(fleet.CreateRequest{ID: id, Spec: spec})
	resp, err := client.Post(addr+"/v1/instances", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: create %s: %v", id, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("loadgen: create %s: status %d", id, resp.StatusCode)
	}
	return nil
}

// dataPlane picks where a run's lookups and bursts go, once. With an
// RPC address it is the binary plane: one pooled wire client shared by
// every worker — a few persistent connections carrying everyone's
// pipelined requests is the shape the plane is built for, not a
// connection per worker — and lookup ops of cfg.RPCLookupBatch targets.
// Without one it is jsonPlane, one target per lookup op. hangUp closes
// whatever was dialed.
func (cfg Config) dataPlane(rpcAddr string, jsonPlane cluster.Transport) (t cluster.Transport, lookupBatch int, hangUp func(), err error) {
	if rpcAddr == "" {
		return jsonPlane, 1, func() {}, nil
	}
	rc, err := wire.Dial(rpcAddr, wire.Options{Conns: cfg.RPCConns})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("loadgen: rpc plane unreachable: %v", err)
	}
	lookupBatch = cfg.RPCLookupBatch
	if lookupBatch == 0 {
		lookupBatch = DefaultRPCLookupBatch
	}
	return rc, lookupBatch, func() { rc.Close() }, nil
}

// TargetHostSizes returns the node counts the spec induces.
func TargetHostSizes(spec fleet.Spec) (nTarget, nHost int) {
	if spec.Kind == fleet.KindShuffle {
		p := ft.SEParams{H: spec.H, K: spec.K}
		return p.NTarget(), p.NHost()
	}
	p := ft.Params{M: spec.M, H: spec.H, K: spec.K}
	return p.NTarget(), p.NHost()
}

// driveBatch issues one reconfiguration operation: an atomic burst of
// batch events on the run's data plane. Single events are fault or
// repair 50/50 on a random node. Bursts model correlated failures: a
// whole "rack" of adjacent nodes (drawn from a small working set, so
// fault patterns recur) fails together or is repaired together. A
// rejected operation (budget exhausted, repairing a healthy node, a
// burst with one bad event) is the daemon correctly enforcing the
// paper's k-fault precondition, not a failure. acked, when non-nil, is
// raised to the epoch the daemon acknowledged — the watermark a
// kill/recover or handoff verification holds the fleet to. A burst
// that fails in transport is neither acked nor sent again (every
// transport guarantees the latter), which is exactly that contract:
// only confirmed epochs must survive.
func driveBatch(t cluster.Transport, id string, rng *rand.Rand, nHost, batch int, st *opStats, acked *atomic.Uint64) {
	events := makeEvents(rng, nHost, batch)
	t0 := time.Now()
	res, err := t.ApplyBatch(id, events)
	switch {
	case err == nil:
		if acked != nil {
			ackMax(acked, res.Epoch)
		}
		st.batches++
		st.events += batch
		st.eventLats = append(st.eventLats, time.Since(t0))
	case rejectedByStateMachine(err):
		st.rejected++
		st.eventLats = append(st.eventLats, time.Since(t0))
	default:
		countFailure(err, st)
	}
}

// rejectedByStateMachine is the expected-enforcement bucket: budget
// (which wraps conflict), conflict and invalid-input refusals.
func rejectedByStateMachine(err error) bool {
	return errors.Is(err, fleet.ErrConflict) || errors.Is(err, fleet.ErrInvalid)
}

// countFailure files an operation that failed: a connection that gave
// no answer apart from an answer that was a refusal.
func countFailure(err error, st *opStats) {
	if wire.IsTransport(err) {
		st.transport++
	} else {
		st.errors++
	}
}

// makeEvents builds one reconfiguration op's events — the traffic
// shape shared by both planes: a random single event for batch 1, a
// whole "rack" of adjacent nodes for bursts, drawn from a small
// working set so fault patterns recur.
func makeEvents(rng *rand.Rand, nHost, batch int) []fleet.Event {
	events := make([]fleet.Event, batch)
	kind := fleet.EventFault
	if rng.Intn(2) == 0 {
		kind = fleet.EventRepair
	}
	if batch == 1 {
		events[0] = fleet.Event{Kind: kind, Node: rng.Intn(nHost)}
		return events
	}
	racks := nHost / batch
	if racks > 4 {
		racks = 4 // small working set: rack failures recur
	}
	base := rng.Intn(racks) * batch
	for i := range events {
		events[i] = fleet.Event{Kind: kind, Node: base + i}
	}
	return events
}

// lookupScratch is a worker's reusable lookup vectors, so the read loop
// allocates nothing per op.
type lookupScratch struct {
	xs   []int
	phis []int
}

func (s *lookupScratch) size(n int) {
	if cap(s.xs) < n {
		s.xs = make([]int, n)
		s.phis = make([]int, n)
	}
	s.xs, s.phis = s.xs[:n], s.phis[:n]
}

// driveLookup issues one read of batch random targets of one instance:
// one latency sample, batch lookups. Above one target it is a
// LookupBatch, at one (or below) a scalar Lookup.
func driveLookup(t cluster.Transport, id string, rng *rand.Rand, nTarget, batch int, scratch *lookupScratch, st *opStats) {
	scratch.size(max(batch, 1))
	for i := range scratch.xs {
		scratch.xs[i] = rng.Intn(nTarget)
	}
	t0 := time.Now()
	var err error
	if batch <= 1 {
		_, _, err = t.Lookup(id, scratch.xs[0])
	} else {
		_, err = t.LookupBatch(id, scratch.xs, scratch.phis)
	}
	if err != nil {
		countFailure(err, st)
		return
	}
	st.lookups += len(scratch.xs)
	st.lookupLats = append(st.lookupLats, time.Since(t0))
}
