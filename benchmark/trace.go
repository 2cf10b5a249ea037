package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The ladder. In a traced run every 64th frame of every caller, once
// its reply has arrived, is replayed synchronously down the rungs
// below the wire: the owning manager, the instance, the mapping. Each
// call is wrapped in a span, so a layer's self time is its rung minus
// the rung below. The spans are recorded here, around the calls into
// each layer; spans inside the program are a later change.

// span is one timed call. Times are nanoseconds since the run began.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // the rung above; 0 for the client round trip
	Frame  uint64 `json:"frame"`  // shared by the spans of one frame
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ns() float64 { return float64(s.End - s.Start) }

// add appends a span under parent and returns its id. Ids are unique
// within a phase: the caller's index and role in the top bits, a
// running count below.
func (c *caller) add(w *world, name string, parent, frame uint64, writer bool, start, end time.Time) uint64 {
	id := uint64(c.index)<<41 | uint64(len(c.spans)+1)
	if writer {
		id |= 1 << 40
	}
	c.spans = append(c.spans, span{
		Name: name, ID: id, Parent: parent, Frame: uint64(c.index)<<41 | frame<<1,
		Start: start.Sub(w.cfg.began).Nanoseconds(), End: end.Sub(w.cfg.began).Nanoseconds(),
	})
	return id
}

// readLadder replays a read frame whose client round trip ran from t0
// to t1.
func (w *world) readLadder(c *caller, frame uint64, st *instState, xs []int, t0, t1 time.Time) {
	mgr := w.stack.owner(st.idBytes).mgr
	in, ok := mgr.instance(st.idBytes)
	if !ok {
		w.fail("ladder: %s is not on its owner", st.id)
		return
	}
	var phis [batchWidth]int
	single := len(xs) == 1
	name := "client.lookup_batch"
	if single {
		name = "client.lookup"
	}
	rung := c.add(w, name, 0, frame, false, t0, t1)

	a := time.Now()
	var err error
	if single {
		_, _, err = mgr.lookup(st.idBytes, xs[0])
	} else {
		_, err = mgr.lookupBatch(st.idBytes, xs, phis[:len(xs)])
	}
	b := time.Now()
	rung = c.add(w, "manager.lookup", rung, frame, false, a, b)

	a = time.Now()
	if single {
		_, _, err2 := in.lookup(xs[0])
		err = firstOf(err, err2)
	} else {
		_, err2 := in.lookupBatch(xs, phis[:len(xs)])
		err = firstOf(err, err2)
	}
	b = time.Now()
	rung = c.add(w, "instance.lookup", rung, frame, false, a, b)

	a = time.Now()
	for _, x := range xs {
		c.sink += st.oracle.phi(x)
	}
	b = time.Now()
	c.add(w, "mapping.phi", rung, frame, false, a, b)
	if err != nil {
		w.fail("ladder read %s: %v", st.id, err)
	}
}

func firstOf(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// writeLadder replays burst b, which the client applied from t0 to t1
// and st already records. In-process it is first undone by back, then
// applied again under a span; both count as acked bursts of the
// instance, whose writer is the caller.
func (w *world) writeLadder(c *caller, frame uint64, st *instState, b, back burst, t0, t1 time.Time) {
	mgr := w.stack.owner(st.idBytes).mgr
	rung := c.add(w, "client.apply_batch", 0, frame, true, t0, t1)
	c.attempted += 2
	for _, step := range []struct {
		b    burst
		name string
	}{{back, ""}, {b, "manager.apply_batch"}} {
		a := time.Now()
		epoch, err := mgr.apply(st.idBytes, step.b.events[:])
		end := time.Now()
		if err != nil || epoch != st.epoch+1 {
			w.fail("ladder write %s: epoch %d, err %v, want epoch %d", st.id, epoch, err, st.epoch+1)
			return
		}
		st.commit(step.b, epoch, w.history)
		if step.name != "" {
			rung = c.add(w, step.name, rung, frame, true, a, end)
		}
	}
	a := time.Now()
	_, err := newOracle(b.faults)
	end := time.Now()
	c.add(w, "mapping.new", rung, frame, true, a, end)
	if err != nil {
		w.fail("ladder write %s: %v", st.id, err)
	}
}

// selfTimes groups spans by frame and returns, for frames whose top
// rung is called root, the median duration of every rung and the
// median of every rung minus the rung below it.
func selfTimes(spans []span, root string) (total, self map[string]float64) {
	byID := make(map[uint64]span, len(spans))
	child := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			child[s.Parent] = s
		}
	}
	totals, selves := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if s.Name != root {
			continue
		}
		for rung, ok := s, true; ok; {
			below, has := child[rung.ID]
			totals[rung.Name] = append(totals[rung.Name], rung.ns())
			if has {
				selves[rung.Name] = append(selves[rung.Name], rung.ns()-below.ns())
			} else {
				selves[rung.Name] = append(selves[rung.Name], rung.ns())
			}
			rung, ok = below, has
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for name, vs := range totals {
		total[name] = median(vs)
		self[name] = median(selves[name])
	}
	return total, self
}

// writeTrace writes the run's spans, kept in memory until now, one
// JSON object a line, phase by phase.
func writeTrace(outDir, workload string, results []phaseResult) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, res := range results {
		spans := append([]span(nil), res.spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, s := range spans {
			line := struct {
				Workload string `json:"workload"`
				Phase    string `json:"phase"`
				span
			}{workload, res.def.name, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
