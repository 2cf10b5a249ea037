// Package loadgen is the shared load driver for the ftnetd
// reconfiguration daemon: it creates a fleet of instances, drives them
// with a configurable mix of phi lookups and fault/repair bursts from
// concurrent workers, and reports throughput and latency percentiles.
// Lookups and bursts travel the binary RPC plane (internal/wire), and
// one storm drives it: the only worker loop, with one driveLookup and
// one driveBatch. The scenarios that own a daemon's lifecycle (restart,
// partition-torture, cluster) are scripts over that storm — triggers
// that fire at a fixed fraction of its budget — and over fleet.Client,
// the control plane (creates, health, promotion, topology,
// verification, scrapes), which is always the JSON API.
//
// cmd/ftload wraps it on the command line.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/obs"
	"ftnet/internal/wire"
)

// Scenario names a traffic shape: what fraction of operations are
// reconfiguration events and how many events each reconfiguration op
// carries (one atomic burst of Batch events; Batch 1 is a random single
// event, Batch > 1 a whole rack). Writers > 0 switches to role-split mode: that
// many workers become dedicated writers issuing nothing but sustained
// atomic bursts, every remaining worker issues nothing but lookups, and
// EventFrac is ignored — the shape that measures read latency while the
// write path storms.
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
	Addr      string // base URL of the daemon's JSON API: the control plane
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
	// RPCAddr is where the storm goes: the TCP address (host:port) of
	// the daemon's binary RPC plane, or of an ftproxy RPC front, that
	// carries every lookup and event burst. The control plane —
	// instance creation, health checks, verification, stats scraping —
	// stays on the JSON API at Addr.
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
	if _, nHost := cfg.Spec.Sizes(); cfg.Scenario.Batch > nHost {
		return fmt.Errorf("loadgen: burst size %d exceeds the %d host nodes", cfg.Scenario.Batch, nHost)
	}
	return nil
}

// Result is the merged measurement of one run. Both latency slices are
// sorted; LookupLatencies is the read-side subset, the distribution a
// write-storm run exists to measure.
type Result struct {
	Lookups         int // resolved lookup targets
	Events          int // individual events applied (bursts count each event)
	Batches         int // accepted event transitions
	Rejected        int // rejected transitions (budget/state enforcement)
	Errors          int // unexpected application failures (bad status, not connection trouble)
	Transport       int // connection-level failures: dial, reset, timeout
	Elapsed         time.Duration
	Latencies       []time.Duration // every successful operation, sorted
	LookupLatencies []time.Duration // lookups only, sorted
	// Service is the daemon's server-side metrics snapshot (request,
	// commit-stage, lag and pause histograms), scraped after the run
	// when Config.ScrapeObs is set; nil otherwise.
	Service *obs.Export
}

// Ops returns the number of completed operations: lookup ops (one per
// frame, however many targets it resolved) plus event transitions,
// accepted or rejected. Each of them recorded exactly one latency.
func (r Result) Ops() int { return len(r.Latencies) }

// Throughput returns completed operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops()) / r.Elapsed.Seconds()
}

// LookupThroughput returns resolved lookups per second — a vectorized
// op resolves many, so this is the figure the lookups_per_sec SLO
// family records.
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
// own and storm merges, so the hot loop takes no locks. Lookup latencies
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

// controlHTTP carries every control-plane request of every scenario.
var controlHTTP = &http.Client{Timeout: 30 * time.Second}

// control returns the control-plane client of the daemon at addr.
func control(addr string) fleet.Client { return fleet.Client{HTTP: controlHTTP, Base: addr} }

// Run executes the configured load against the daemon and merges the
// per-worker measurements.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	api := control(cfg.Addr)
	ids, err := createFleet(api, cfg)
	if err != nil {
		return Result{}, err
	}
	rc, lookupBatch, err := cfg.dataPlane()
	if err != nil {
		return Result{}, err
	}
	defer rc.Close()

	res, _ := cfg.storm(rc, lookupBatch, ids)
	if cfg.ScrapeObs {
		e, err := FetchObs(cfg.Addr)
		if err != nil {
			return res, err
		}
		res.Service = e
	}
	return res, nil
}

// trigger is one scripted step of a storm: the worker that completes
// the operation taking the storm past after (a fraction of the request
// budget) runs fire, once, inline — the other workers keep storming
// underneath it, which is why the claim is a flag and not a sync.Once
// (whose other callers would wait the hook out). A stop trigger ends
// the storm there: what it fired at is gone, and the workers drain out
// instead of spending the rest of the budget on transport errors.
type trigger struct {
	after float64
	stop  bool
	fire  func() error

	threshold int64 // after, in operations of the storm it is passed to
	claimed   atomic.Bool
	at        time.Time // when it fired; zero if the storm never reached it
	err       error     // what fire returned
}

// fired reports how the trigger went: fire's error, or that the storm
// ran out of budget before reaching it.
func (tr *trigger) fired(what string) error {
	switch {
	case tr.err != nil:
		return fmt.Errorf("loadgen: %s hook: %w", what, tr.err)
	case tr.at.IsZero():
		return fmt.Errorf("loadgen: storm finished before the %s threshold (%d ops) was reached", what, tr.threshold)
	}
	return nil
}

// transport is what a storm drives: the data-plane method set of
// *wire.Client, whose errors come back in fleet's categories
// (errors.Is(err, fleet.ErrWrongShard), fleet.ErrUnavailable, ...).
type transport interface {
	Lookup(id string, x int) (phi int, epoch uint64, err error)
	LookupBatch(id string, xs, phis []int) (epoch uint64, err error)
	ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error)
}

// storm is the worker loop of every scenario: cfg.Workers workers
// spend cfg.Requests operations on ids over t, each drawing (id, role,
// payload) from its own seeded rng — in role-split mode the first
// Scenario.Writers workers only write and the rest only read — and
// firing each trigger as the storm crosses it. It returns the merged
// measurement and, per id, the highest epoch any write was acknowledged
// at: the watermark a kill/recover or handoff verification holds the
// fleet to.
func (cfg Config) storm(t transport, lookupBatch int, ids []string, triggers ...*trigger) (Result, map[string]uint64) {
	nTarget, nHost := cfg.Spec.Sizes()
	acked := make(map[string]*atomic.Uint64, len(ids))
	for _, id := range ids {
		acked[id] = new(atomic.Uint64)
	}
	for _, tr := range triggers {
		tr.threshold = int64(float64(cfg.Requests) * tr.after)
	}
	var (
		ops     atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	perWorker := make([]opStats, cfg.Workers)
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
			writer := w < cfg.Scenario.Writers
			for i := 0; i < n && !stopped.Load(); i++ {
				id := ids[rng.Intn(len(ids))]
				if writer || (cfg.Scenario.Writers == 0 && rng.Float64() < cfg.Scenario.EventFrac) {
					driveBatch(t, id, rng, nHost, cfg.Scenario.Batch, st, acked[id])
				} else {
					driveLookup(t, id, rng, nTarget, lookupBatch, &scratch, st)
				}
				done := ops.Add(1)
				for _, tr := range triggers {
					if done >= tr.threshold && tr.claimed.CompareAndSwap(false, true) {
						if tr.stop {
							stopped.Store(true)
						}
						tr.at = time.Now()
						tr.err = tr.fire()
					}
				}
			}
		}(w, n)
	}
	wg.Wait()

	res := Result{Elapsed: time.Since(start)}
	for i := range perWorker {
		st := &perWorker[i]
		res.Lookups += st.lookups
		res.Events += st.events
		res.Batches += st.batches
		res.Rejected += st.rejected
		res.Errors += st.errors
		res.Transport += st.transport
		res.Latencies = append(res.Latencies, st.eventLats...)
		res.Latencies = append(res.Latencies, st.lookupLats...)
		res.LookupLatencies = append(res.LookupLatencies, st.lookupLats...)
	}
	sortDurations(res.Latencies)
	sortDurations(res.LookupLatencies)
	watermark := make(map[string]uint64, len(ids))
	for id, a := range acked {
		watermark[id] = a.Load()
	}
	return res, watermark
}

// ackMax CAS-maxes the ack watermark: any epoch the daemon confirmed
// must survive what the scenario does to it.
func ackMax(acked *atomic.Uint64, epoch uint64) {
	for {
		cur := acked.Load()
		if epoch <= cur || acked.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// createFleet health-checks the daemon and creates the run's instances
// (tolerating ones left over from a prior run), returning their ids.
func createFleet(api fleet.Client, cfg Config) ([]string, error) {
	if err := api.Healthz(); err != nil {
		return nil, fmt.Errorf("loadgen: daemon unreachable: %v", err)
	}
	ids := cfg.InstanceIDs()
	for _, id := range ids {
		if err := createInstance(api, id, cfg.Spec); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// createInstance creates one instance on the daemon; one left over from
// a prior run (a conflict) is as good.
func createInstance(api fleet.Client, id string, spec fleet.Spec) error {
	if _, err := api.Create(id, spec); err != nil && !errors.Is(err, fleet.ErrConflict) {
		return fmt.Errorf("loadgen: create %s: %w", id, err)
	}
	return nil
}

// healthTimeout bounds every wait a scenario makes for a daemon: to
// answer /healthz, to replicate, to promote, to converge, and to serve
// an instance staged mid-migration.
const healthTimeout = 15 * time.Second

// AwaitHealthy polls /healthz of the daemon at addr until it answers.
func AwaitHealthy(addr string, timeout time.Duration) error {
	if err := fleet.Poll(timeout, control(addr).Healthz); err != nil {
		return fmt.Errorf("loadgen: daemon %s not healthy within %v: %v", addr, timeout, err)
	}
	return nil
}

// dataPlane dials where a run's lookups and bursts go: one pooled wire
// client at cfg.RPCAddr shared by every worker — a few persistent
// connections carrying everyone's pipelined requests is the shape the
// plane is built for, not a connection per worker — and the width of
// its lookup ops, cfg.RPCLookupBatch targets.
func (cfg Config) dataPlane() (rc *wire.Client, lookupBatch int, err error) {
	rc, err = wire.Dial(cfg.RPCAddr, wire.Options{Conns: cfg.RPCConns})
	if err != nil {
		return nil, 0, fmt.Errorf("loadgen: rpc plane at %q unreachable: %v", cfg.RPCAddr, err)
	}
	lookupBatch = cfg.RPCLookupBatch
	if lookupBatch == 0 {
		lookupBatch = DefaultRPCLookupBatch
	}
	return rc, lookupBatch, nil
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
func driveBatch(t transport, id string, rng *rand.Rand, nHost, batch int, st *opStats, acked *atomic.Uint64) {
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

// makeEvents builds one reconfiguration op's events: a random single
// event for batch 1, a whole "rack" of adjacent nodes for bursts, drawn
// from a small working set so fault patterns recur.
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
func driveLookup(t transport, id string, rng *rand.Rand, nTarget, batch int, scratch *lookupScratch, st *opStats) {
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
