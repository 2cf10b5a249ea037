package loadgen

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/wire"
)

func TestScenarioByName(t *testing.T) {
	for _, want := range []string{"mixed", "read-heavy", "burst-heavy", "write-storm"} {
		sc, ok := ByName(want)
		if !ok || sc.Name != want {
			t.Errorf("ByName(%q) = %+v, %v", want, sc, ok)
		}
		if sc.Batch < 1 || sc.EventFrac < 0 || sc.EventFrac > 1 {
			t.Errorf("scenario %q has invalid shape: %+v", want, sc)
		}
	}
	if _, ok := ByName("tsunami"); ok {
		t.Error("bogus scenario found")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Instances: 1, Workers: 1, Requests: 1, Scenario: Mixed,
		Spec: fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []Config{
		{Instances: 0, Workers: 1, Requests: 1, Scenario: Mixed},
		{Instances: 1, Workers: 1, Requests: 1, Scenario: Scenario{Batch: 0},
			Spec: good.Spec},
		{Instances: 1, Workers: 1, Requests: 1, Scenario: Scenario{Batch: 1, EventFrac: 1.5},
			Spec: good.Spec},
		{Instances: 1, Workers: 1, Requests: 1, Scenario: Mixed,
			Spec: fleet.Spec{Kind: "torus", H: 4}},
		// Burst larger than the whole host graph: racks would be zero.
		{Instances: 1, Workers: 1, Requests: 1, Scenario: Scenario{Batch: 20},
			Spec: good.Spec},
		// Negative writer count.
		{Instances: 1, Workers: 2, Requests: 1, Scenario: Scenario{Batch: 1, Writers: -1},
			Spec: good.Spec},
		// Every worker a writer: nobody left to measure reads.
		{Instances: 1, Workers: 2, Requests: 1, Scenario: Scenario{Batch: 1, Writers: 2},
			Spec: good.Spec},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTargetHostSizes(t *testing.T) {
	n, h := fleet.Spec{Kind: fleet.KindDeBruijn, M: 3, H: 4, K: 2}.Sizes()
	if n != 81 || h != 83 {
		t.Errorf("debruijn m=3 h=4: %d/%d, want 81/83", n, h)
	}
	n, h = fleet.Spec{Kind: fleet.KindShuffle, H: 5, K: 1}.Sizes()
	if n != 32 || h != 33 {
		t.Errorf("shuffle h=5: %d/%d, want 32/33", n, h)
	}
}

func TestResultPercentile(t *testing.T) {
	res := Result{Latencies: []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	cases := []struct {
		p    float64
		want time.Duration
	}{{50, 5}, {90, 9}, {100, 10}, {0, 1}}
	for _, c := range cases {
		if got := res.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (Result{}).Percentile(99); got != 0 {
		t.Errorf("Percentile on empty result = %v, want 0", got)
	}
}

// TestPercentileEdgeCases covers the degenerate inputs: empty samples,
// a single sample (every p returns it), and the p=0 / p=100 extremes
// (the min and max, never out of range).
func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil, 50) = %v, want 0", got)
	}
	single := []time.Duration{42}
	for _, p := range []float64{0, 0.1, 50, 99, 99.9, 100} {
		if got := percentile(single, p); got != 42 {
			t.Errorf("single sample percentile(%v) = %v, want 42", p, got)
		}
	}
	many := []time.Duration{5, 10, 15, 20}
	if got := percentile(many, 0); got != 5 {
		t.Errorf("p0 = %v, want the minimum 5", got)
	}
	if got := percentile(many, 100); got != 20 {
		t.Errorf("p100 = %v, want the maximum 20", got)
	}
	// Lookup-side wrappers share the same core.
	res := Result{LookupLatencies: []time.Duration{7}}
	if got := res.LookupPercentile(99); got != 7 {
		t.Errorf("LookupPercentile(99) on one sample = %v, want 7", got)
	}
}

// TestRunScenarios drives every named scenario against an in-process
// daemon and checks the accounting: no transport errors, every
// operation measured, burst scenarios applying whole batches, and each
// accepted burst advancing its instance's epoch exactly once.
func TestRunScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			d, url, rpcAddr, _ := startDaemon(t, fleet.DaemonConfig{})
			mgr := d.Manager()
			res, err := Run(Config{
				Addr:      url,
				RPCAddr:   rpcAddr,
				Instances: 2,
				Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
				Workers:   4,
				Requests:  300,
				Scenario:  sc,
				Seed:      3,
				IDPrefix:  "t-" + sc.Name,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 || res.Transport != 0 {
				t.Fatalf("%d errors, %d transport: %+v", res.Errors, res.Transport, res)
			}
			if got := res.Ops(); got != 300 {
				t.Fatalf("ops = %d, want 300", got)
			}
			if len(res.Latencies) != 300 {
				t.Fatalf("latencies = %d, want 300", len(res.Latencies))
			}
			if res.Events != res.Batches*sc.Batch {
				t.Fatalf("events %d != batches %d x %d", res.Events, res.Batches, sc.Batch)
			}
			st := mgr.Stats()
			if int(st.Lookups) != res.Lookups || int(st.Batches) != res.Batches {
				t.Fatalf("daemon saw lookups/batches %d/%d, client measured %d/%d",
					st.Lookups, st.Batches, res.Lookups, res.Batches)
			}
			if res.Lookups != len(res.LookupLatencies)*DefaultRPCLookupBatch {
				t.Fatalf("lookups = %d from %d lookup ops of %d", res.Lookups, len(res.LookupLatencies), DefaultRPCLookupBatch)
			}
			var epochs uint64
			for _, id := range mgr.List() {
				in, _ := mgr.Get(id)
				epochs += in.Info().Epoch
			}
			if epochs != uint64(res.Batches) {
				t.Fatalf("epoch sum %d != accepted bursts %d: a burst was not applied atomically", epochs, res.Batches)
			}
		})
	}
}

// TestRunWriteStormRoleSplit pins the role-split contract: with W
// dedicated writers out of N workers, the write side is sustained
// bursts (every event op is an atomic batch) and the read side is pure
// lookups whose latencies are reported separately.
func TestRunWriteStormRoleSplit(t *testing.T) {
	_, url, rpcAddr, _ := startDaemon(t, fleet.DaemonConfig{})
	const requests = 400
	res, err := Run(Config{
		Addr:      url,
		RPCAddr:   rpcAddr,
		Instances: 2,
		Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
		Workers:   4,
		Requests:  requests,
		Scenario:  WriteStorm,
		Seed:      11,
		IDPrefix:  "t-storm-split",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	// 2 of 4 workers are writers, so half the ops are event
	// transitions (accepted or rejected) and the other half lookups.
	writes, reads := res.Batches+res.Rejected, len(res.LookupLatencies)
	if writes != requests/2 || reads != requests/2 {
		t.Fatalf("role split: %d writes, %d lookup ops, want %d each", writes, reads, requests/2)
	}
	// Sustained bursts: every accepted transition carries a full batch.
	if res.Events != res.Batches*WriteStorm.Batch {
		t.Fatalf("events %d != batches %d x %d", res.Events, res.Batches, WriteStorm.Batch)
	}
	if p99 := res.LookupPercentile(99); p99 <= 0 {
		t.Fatalf("read p99 = %v under storm", p99)
	}
}

// scriptedTransport answers a storm from a script keyed on the call
// count: every 5th write gets no answer, every 7th is refused by the
// state machine, and the rest are acked at an epoch that jumps around,
// so "the highest acked" and "the last acked" differ.
type scriptedTransport struct {
	calls    atomic.Int64
	lost     atomic.Int64
	rejected atomic.Int64
	mu       sync.Mutex
	maxAcked map[string]uint64
}

func (s *scriptedTransport) Lookup(id string, x int) (int, uint64, error) {
	s.calls.Add(1)
	return x, 0, nil
}

func (s *scriptedTransport) LookupBatch(id string, xs, phis []int) (uint64, error) {
	s.calls.Add(1)
	return 0, nil
}

func (s *scriptedTransport) ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error) {
	n := s.calls.Add(1)
	switch {
	case n%5 == 0: // an epoch rides along that must not be acked
		s.lost.Add(1)
		return fleet.EventResult{Epoch: 1 << 40}, &wire.TransportError{Err: errors.New("scripted hang-up")}
	case n%7 == 0:
		s.rejected.Add(1)
		return fleet.EventResult{Epoch: 1 << 41}, fleet.ErrConflict
	}
	epoch := uint64(n*7919%1000) + 1
	s.mu.Lock()
	s.maxAcked[id] = max(s.maxAcked[id], epoch)
	s.mu.Unlock()
	return fleet.EventResult{Epoch: epoch, Applied: len(events)}, nil
}

// TestStormTriggers drives the one worker loop over a scripted
// transport: each trigger fires exactly once, no earlier than its
// threshold, inline on one worker while the others keep going; a stop
// trigger ends the run short of the budget; one past the budget never
// fires and says so; the returned watermark is the max acked epoch per
// id; and a write that got no answer is neither acked nor counted as a
// rejection.
func TestStormTriggers(t *testing.T) {
	cfg := Config{
		Instances: 3,
		Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2},
		Workers:   4,
		Requests:  400,
		Scenario:  Scenario{Name: "storm", EventFrac: 0.5, Batch: 1},
		Seed:      3,
	}
	st := &scriptedTransport{maxAcked: make(map[string]uint64)}
	var fires [3]atomic.Int64
	var callsAtFirst, callsAtStop int64
	first := &trigger{after: 0.25, fire: func() error {
		fires[0].Add(1)
		callsAtFirst = st.calls.Load()
		// This worker is parked here; the calls that follow are the others'.
		for deadline := time.Now().Add(10 * time.Second); st.calls.Load() < callsAtFirst+10; {
			if time.Now().After(deadline) {
				return errors.New("the storm stood still while the trigger ran")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}}
	stop := &trigger{after: 0.5, stop: true, fire: func() error {
		fires[1].Add(1)
		callsAtStop = st.calls.Load()
		return errors.New("scripted hook failure")
	}}
	never := &trigger{after: 1.5, fire: func() error { fires[2].Add(1); return nil }}

	res, acked := cfg.storm(st, 1, cfg.InstanceIDs(), first, stop, never)

	if fires[0].Load() != 1 || fires[1].Load() != 1 || fires[2].Load() != 0 {
		t.Fatalf("triggers fired %d, %d and %d times, want 1, 1 and 0", fires[0].Load(), fires[1].Load(), fires[2].Load())
	}
	if err := first.fired("first"); err != nil {
		t.Errorf("first trigger: %v", err)
	}
	if err := stop.fired("stop"); err == nil || !errors.Is(err, stop.err) {
		t.Errorf("stop trigger reported %v, want its hook's failure", err)
	}
	if err := never.fired("never"); err == nil || !never.at.IsZero() {
		t.Errorf("a trigger past the budget reported %v (fired at %v), want never reached", err, never.at)
	}
	if callsAtFirst < 100 || callsAtStop < 200 || !stop.at.After(first.at) {
		t.Errorf("triggers fired after %d and %d calls (at %v and %v), want >= 100 then >= 200",
			callsAtFirst, callsAtStop, first.at, stop.at)
	}
	// Every worker finishes the operation it was in when the stop fired,
	// and no more.
	if total := st.calls.Load(); total < 200 || total >= int64(cfg.Requests) || total > callsAtStop+int64(cfg.Workers) {
		t.Errorf("storm made %d calls (%d when the stop fired), want it to end there, short of %d",
			total, callsAtStop, cfg.Requests)
	}

	if res.Transport != int(st.lost.Load()) || res.Rejected != int(st.rejected.Load()) || res.Errors != 0 {
		t.Errorf("storm counted %d transport, %d rejected, %d errors; the script lost %d and rejected %d",
			res.Transport, res.Rejected, res.Errors, st.lost.Load(), st.rejected.Load())
	}
	if res.Transport == 0 || res.Rejected == 0 || res.Batches == 0 || res.Lookups == 0 {
		t.Errorf("degenerate storm: %+v", res)
	}
	if got := int64(res.Ops() + res.Transport); got != st.calls.Load() {
		t.Errorf("storm accounts for %d operations, the transport saw %d", got, st.calls.Load())
	}
	if len(acked) != cfg.Instances {
		t.Errorf("watermarks for %d ids, want %d", len(acked), cfg.Instances)
	}
	for id, epoch := range acked {
		if epoch != st.maxAcked[id] || epoch == 0 || epoch > 1000 {
			t.Errorf("%s: watermark %d, highest epoch the script acked is %d", id, epoch, st.maxAcked[id])
		}
	}
}
