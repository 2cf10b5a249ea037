package loadgen

import (
	"fmt"
	"time"
)

// The restart scenario is the durability probe: storm a journaled
// daemon with atomic fault bursts, kill it mid-storm (SIGKILL — no
// shutdown grace, no final flush beyond the journal's fsync policy),
// restart it, and verify that recovery brought every instance back to
// at least the last epoch any client was acknowledged — and to the
// exact mapping the paper's reconfiguration induces for the recovered
// fault set, recomputed by the client from the spec it created.
//
// It is not a Scenario preset: it needs control over the daemon's
// lifecycle, which a load shape cannot express. cmd/ftload wires the
// hooks to a child process it SIGKILLs; the in-process test wires them
// to an in-process daemon sharing a journal file.

// RestartConfig drives one kill/recover run. Kill must terminate the
// daemon abruptly; Start must boot a fresh daemon over the same
// journal and return its base URL (usually cfg.Addr again — a test may
// return a new one). The storm goes to Config.RPCAddr, which is not
// dialed again after the restart.
type RestartConfig struct {
	Config
	Kill  func() error
	Start func() (addr string, err error)
}

// restartKillAt is the fraction of the request budget completed before
// the kill: mid-storm.
const restartKillAt = 0.5

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
	cfg.Scenario.Writers = 0
	if err := cfg.Config.Validate(); err != nil {
		return RestartResult{}, err
	}
	api := control(cfg.Addr)
	ids, err := createFleet(api, cfg.Config)
	if err != nil {
		return RestartResult{}, err
	}
	// ApplyBatch returns the committed epoch, the ack watermark; the
	// kill manifests as transport errors.
	rc, lookupBatch, err := cfg.dataPlane()
	if err != nil {
		return RestartResult{}, err
	}
	defer rc.Close()

	// Storm: every worker posts atomic bursts; the one that crosses the
	// kill threshold pulls the trigger, after which transport errors are
	// the expected symptom and the workers drain out.
	kill := &trigger{after: restartKillAt, stop: true, fire: cfg.Kill}
	res := RestartResult{Recovered: make(map[string]uint64, len(ids))}
	res.Storm, res.Acked = cfg.storm(rc, lookupBatch, ids, kill)
	if err := kill.fired("kill"); err != nil {
		return res, err
	}

	// Restart and wait for recovery to finish (the daemon only serves
	// after its journal replay verifies).
	addr, err := cfg.Start()
	if err != nil {
		return res, fmt.Errorf("loadgen: start hook: %v", err)
	}
	if addr != "" {
		api = control(addr)
	}
	if err := AwaitHealthy(api.Base, healthTimeout); err != nil {
		return res, err
	}
	res.Downtime = time.Since(kill.at)

	// Verify every instance against the durability contract: it exists,
	// its epoch covers every acknowledged transition (a write the kill
	// cut off before its answer may have landed too, so not strictly the
	// watermark), and its mapping is the paper's over a fault set within
	// the budget of the spec it was created with.
	for _, id := range ids {
		info, err := verifyInstance(api, cfg.Spec, id, res.Acked[id], false)
		if info.ID != "" {
			res.Recovered[id] = info.Epoch
		}
		if err != nil {
			return res, err
		}
		res.Verified++
	}
	return res, nil
}
