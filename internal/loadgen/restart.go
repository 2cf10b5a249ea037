package loadgen

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/cluster"
)

// The restart scenario is the durability probe: storm a journaled
// daemon with atomic fault bursts, kill it mid-storm (SIGKILL — no
// shutdown grace, no final flush beyond the journal's fsync policy),
// restart it, and verify that recovery brought every instance back to
// at least the last epoch any client was acknowledged — and, where the
// client can recompute it, to the exact mapping the paper's
// reconfiguration induces for the recovered fault set.
//
// It is not a Scenario preset: it needs control over the daemon's
// lifecycle, which an HTTP load shape cannot express. cmd/ftload wires
// the hooks to a child process it SIGKILLs; the in-process test wires
// them to an httptest server sharing a journal file.

// RestartConfig drives one kill/recover run. Kill must terminate the
// daemon abruptly; Start must boot a fresh daemon over the same
// journal and return its base URL (usually cfg.Addr again — a test may
// return a new one).
type RestartConfig struct {
	Config
	Kill  func() error
	Start func() (addr string, err error)
	// KillAfterFrac is the fraction of the request budget to complete
	// before the kill (default 0.5 — mid-storm).
	KillAfterFrac float64
	// HealthTimeout bounds the wait for the restarted daemon's /healthz
	// (default 15s).
	HealthTimeout time.Duration
}

// RestartResult reports one kill/recover run.
type RestartResult struct {
	Storm     Result            // the pre-kill storm measurement
	Acked     map[string]uint64 // per-instance max epoch acknowledged before the kill
	Recovered map[string]uint64 // per-instance epoch observed after recovery
	Downtime  time.Duration     // kill to first healthy response
	Verified  int               // instances that passed every recovery check
}

// RunRestart executes the restart scenario. It returns an error if the
// daemon fails to come back, loses an acknowledged epoch, or serves a
// mapping that disagrees with a fresh client-side recomputation.
func RunRestart(cfg RestartConfig) (RestartResult, error) {
	if cfg.Kill == nil || cfg.Start == nil {
		return RestartResult{}, fmt.Errorf("loadgen: restart scenario needs Kill and Start hooks")
	}
	if cfg.Scenario.Batch < 1 {
		cfg.Scenario.Batch = 4
	}
	cfg.Scenario.Name = "restart"
	cfg.Scenario.EventFrac = 1
	if cfg.KillAfterFrac <= 0 || cfg.KillAfterFrac >= 1 {
		cfg.KillAfterFrac = 0.5
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 15 * time.Second
	}
	if err := cfg.Config.Validate(); err != nil {
		return RestartResult{}, err
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "load-restart"
	}
	client := &http.Client{Timeout: 30 * time.Second}
	ids, err := createFleet(client, cfg.Config)
	if err != nil {
		return RestartResult{}, err
	}
	// With RPCAddr set the storm travels the binary RPC plane; the
	// ack-watermark contract is identical (ApplyBatch returns the
	// committed epoch), and the kill manifests as transport errors
	// either way.
	t, _, hangUp, err := cfg.dataPlane(cfg.RPCAddr, cluster.HTTP{Client: client, Base: cfg.Addr})
	if err != nil {
		return RestartResult{}, err
	}
	defer hangUp()

	// Storm: every worker posts atomic bursts and records the highest
	// epoch the daemon acknowledged per instance. Any worker crossing
	// the kill threshold pulls the trigger exactly once; after the kill,
	// transport errors are the expected symptom and workers drain out.
	acked := make(map[string]*atomic.Uint64, len(ids))
	for _, id := range ids {
		acked[id] = new(atomic.Uint64)
	}
	var (
		ops       atomic.Int64
		stopped   atomic.Bool
		killOnce  sync.Once
		killErr   error
		killedAt  time.Time
		threshold = int64(float64(cfg.Requests) * cfg.KillAfterFrac)
	)
	_, nHost := TargetHostSizes(cfg.Spec)
	perWorker := make([]opStats, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		n := cfg.Requests / cfg.Workers
		if w < cfg.Requests%cfg.Workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			st := &perWorker[w]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			for i := 0; i < n && !stopped.Load(); i++ {
				id := ids[rng.Intn(len(ids))]
				driveBatch(t, id, rng, nHost, cfg.Scenario.Batch, st, acked[id])
				if ops.Add(1) >= threshold {
					killOnce.Do(func() {
						stopped.Store(true)
						killedAt = time.Now()
						killErr = cfg.Kill()
					})
				}
			}
		}(w, n)
	}
	wg.Wait()

	res := RestartResult{
		Acked:     make(map[string]uint64, len(ids)),
		Recovered: make(map[string]uint64, len(ids)),
	}
	res.Storm = mergeStats(perWorker, time.Since(start))
	for _, id := range ids {
		res.Acked[id] = acked[id].Load()
	}
	if killErr != nil {
		return res, fmt.Errorf("loadgen: kill hook: %v", killErr)
	}
	if killedAt.IsZero() {
		return res, fmt.Errorf("loadgen: storm finished before the kill threshold (%d ops) was reached", threshold)
	}

	// Restart and wait for recovery to finish (the daemon only serves
	// after its journal replay verifies).
	addr, err := cfg.Start()
	if err != nil {
		return res, fmt.Errorf("loadgen: start hook: %v", err)
	}
	if addr == "" {
		addr = cfg.Addr
	}
	deadline := time.Now().Add(cfg.HealthTimeout)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("loadgen: daemon not healthy %v after restart", cfg.HealthTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res.Downtime = time.Since(killedAt)

	// Verify every instance against the durability contract: it exists,
	// its epoch covers every acknowledged transition (a write the kill
	// cut off before its answer may have landed too, so not strictly the
	// watermark), its mapping is the paper's, and its fault set respects
	// the budget.
	for _, id := range ids {
		info, err := verifyInstance(client, addr, id, res.Acked[id], false)
		if info.ID != "" {
			res.Recovered[id] = info.Epoch
		}
		if err == nil && len(info.Faults) > cfg.Spec.K {
			err = fmt.Errorf("loadgen: %s recovered %d faults over budget k=%d", id, len(info.Faults), cfg.Spec.K)
		}
		if err != nil {
			return res, err
		}
		res.Verified++
	}
	return res, nil
}

// ackMax CAS-maxes the ack watermark: any epoch the daemon confirmed
// must survive the kill.
func ackMax(acked *atomic.Uint64, epoch uint64) {
	for {
		cur := acked.Load()
		if epoch <= cur || acked.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// mergeStats folds per-worker measurements into one Result (the tail
// of Run, shared with the restart storm).
func mergeStats(perWorker []opStats, elapsed time.Duration) Result {
	total := Result{Elapsed: elapsed}
	for i := range perWorker {
		st := &perWorker[i]
		total.Lookups += st.lookups
		total.Events += st.events
		total.Batches += st.batches
		total.Rejected += st.rejected
		total.Errors += st.errors
		total.Transport += st.transport
		total.Latencies = append(total.Latencies, st.eventLats...)
		total.Latencies = append(total.Latencies, st.lookupLats...)
		total.LookupLatencies = append(total.LookupLatencies, st.lookupLats...)
	}
	sortDurations(total.Latencies)
	sortDurations(total.LookupLatencies)
	return total
}
