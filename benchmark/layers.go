package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// The per-layer half of a traced run. Three things feed it: probes
// that call one layer's public functions in a loop, on fixtures booted
// for the purpose; the ladder's spans from the workload's own frames;
// and the program's counters, read by name around the workload's
// phases.

// perCall runs f n times and returns the mean nanoseconds of one call.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeSink keeps the probes' results alive; only probeLayers, which
// runs on one goroutine, writes it.
var probeSink int

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeLayers measures every layer that can be called on its own. It
// returns the proxy fixture's counters as well, for the proxy rows.
func probeLayers(cfg runConfig, ck *clock, ms metricSet) (map[string]float64, error) {
	r := newRand(cfg.seed, 1<<20, 0, false)
	probeTime := time.Duration(cfg.seconds / 36 * float64(time.Second)) // 0.5 s of an 18 s run
	sink := 0

	// ft: one mapping with k/2 faults, and building one with k.
	pre := []int{rackNode(0, 0), rackNode(0, 1), rackNode(0, 2), rackNode(0, 3)}
	o, err := newOracle(pre)
	if err != nil {
		return nil, err
	}
	xs := make([]int, 1024)
	for i := range xs {
		xs[i] = r.IntN(nTarget)
	}
	ms.set("ft.phi_ns", perCall(1<<21, func(i int) { sink += o.phi(xs[i&1023]) }))
	atBudget := append([]int{rackNode(9, 3), rackNode(9, 1), rackNode(9, 0), rackNode(9, 2)}, pre...)
	ms.set("ft.new_mapping_ns", perCall(1<<17, func(int) {
		if _, err2 := newOracle(atBudget); err2 != nil {
			err = err2
		}
	}))
	if err != nil {
		return nil, err
	}

	// fleet, in-process: a daemon without a journal, its instances at
	// k/2 faults.
	fw, err := setUp(workloadDef{name: "fixture-fleet"}, cfg, "", ck)
	if err != nil {
		return nil, err
	}
	mgr := fw.stack.daemons[0].mgr
	st := &fw.inst[0]
	in, _ := mgr.instance(st.idBytes)
	ms.set("fleet.instance_lookup_ns", perCall(1<<21, func(i int) {
		phi, _, _ := in.lookup(xs[i&1023])
		sink += phi
	}))
	ms.set("fleet.manager_lookup_ns", perCall(1<<20, func(i int) {
		phi, _, _ := mgr.lookup(fw.inst[i&255].idBytes, xs[i&1023])
		sink += phi
	}))
	phis := make([]int, batchWidth)
	ms.set("fleet.manager_lookup_batch16_ns", perCall(1<<18, func(i int) {
		base := (i * batchWidth) & 1023
		mgr.lookupBatch(fw.inst[i&255].idBytes, xs[base:base+batchWidth], phis)
		sink += phis[0]
	}))
	apply := func(unique bool, from int) (ns, allocs float64) {
		const n = 1 << 15
		before := mallocs()
		ns = perCall(n, func(i int) {
			st := &fw.inst[from+i&127]
			b := st.plan(r, unique)
			epoch, err2 := mgr.apply(st.idBytes, b.events[:])
			if err2 != nil {
				err = err2
			}
			st.commit(b, epoch, false)
		})
		return ns, float64(mallocs()-before) / n
	}
	recurringNS, allocs := apply(false, 0)
	uniqueNS, _ := apply(true, 128)
	genNS := perCall(1<<15, func(i int) { fw.inst[i&127].plan(r, false) })
	ms.set("fleet.apply_batch_ns", recurringNS-genNS)
	ms.set("fleet.apply_batch_unique_ns", uniqueNS-genNS)
	ms.setNote("fleet.apply_batch_allocs", allocs, "process mallocs per burst, the generator's included")
	if cerr := fw.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// journal: encoding one record; one appender on the journal's own
	// filesystem; one appender on the checkout's disk.
	sorted := append([]int(nil), atBudget...)
	sort.Ints(sorted)
	var buf []byte
	ms.set("journal.encode_ns", perCall(1<<19, func(i int) {
		if buf, err = encodeRecord(buf, uint64(i+1), sorted); err != nil {
			return
		}
	}))
	if err != nil {
		return nil, err
	}
	appendNS, _, _, err := appendPass(filepath.Join(cfg.journalDir, "probe.wal"), 1<<17, probeTime, sorted)
	if err != nil {
		return nil, err
	}
	ms.setNote("journal.append_sync_ns", appendNS, "one appender on "+fsType(cfg.journalDir))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	diskNS, _, diskSyncs, err := appendPass(filepath.Join(cfg.outDir, "disk-probe.wal"), 50000, 2*probeTime, sorted)
	if err != nil {
		return nil, err
	}
	ms.setNote("journal.disk_syncs_per_record", diskSyncs, "one appender on "+fsType(cfg.outDir))
	ms.setNote("journal.disk_fsync_us", diskNS/1e3, "mean append with its fsync on "+fsType(cfg.outDir))

	// wire codec, shard ring, obs, and the benchmark's own generator.
	probe := newCodecProbe(st.id, xs[:batchWidth], phis)
	ms.set("wire.codec_ns_per_frame", perCall(1<<18, func(int) {
		if err2 := probe.roundTrip(); err2 != nil {
			err = err2
		}
	}))
	if err != nil {
		return nil, err
	}
	owner := ringOwner()
	ms.set("shard.owner_ns", perCall(1<<20, func(i int) { sink += len(owner(fw.inst[i&255].idBytes)) }))
	ms.set("obs.observe_ns", observeNS(1<<21))
	ms.setNote("bench.gen_ns_per_frame", genOnlyNS(cfg.seed, 1<<18), "generator, a stand-in transport and the check")

	// wire and proxy, over loopback: the same frames against one daemon
	// and through the proxy, neither with a journal.
	direct, _, err := probeWire(cfg, ck, probeTime, false)
	if err != nil {
		return nil, err
	}
	proxied, proxyCounters, err := probeWire(cfg, ck, probeTime, true)
	if err != nil {
		return nil, err
	}
	pipelined := direct["pipelined"]
	ms.setNote("wire.rtt_single_ns", direct["single"].readP50, direct["single"].readRTT.note())
	ms.setNote("wire.rtt_batch16_ns", direct["batch16"].readP50, direct["batch16"].readRTT.note())
	ms.setNote("wire.apply_rtt_ns", direct["apply"].writeP50, direct["apply"].writeRTT.note()+", no journal")
	ms.setNote("wire.pipelined_ns_per_frame", float64(pipelined.elapsed.Nanoseconds())/float64(pipelined.frames),
		fmt.Sprintf("%d frames", pipelined.frames))
	ms.setNote("wire.allocs_per_frame", float64(pipelined.mallocs)/float64(pipelined.frames), "process mallocs, both ends and the benchmark")
	ms.set("proxy.hop_ns", proxied["single"].readP50-direct["single"].readP50)
	ms.setNote("proxy.cost_ratio", pipelined.lookupRate/proxied["pipelined"].lookupRate,
		fmt.Sprintf("%.0f direct / %.0f proxied lookups/s", pipelined.lookupRate, proxied["pipelined"].lookupRate))

	probeSink += sink
	return proxyCounters, nil
}

// probeWire boots a stack without journals and runs four short phases
// against it: solo Lookup, solo LookupBatch-16, solo ApplyBatch-4 and
// LookupBatch-16 at saturation. It returns each phase's result by name
// and the stack's counters at the end.
func probeWire(cfg runConfig, ck *clock, d time.Duration, proxied bool) (map[string]phaseResult, map[string]float64, error) {
	w, err := setUp(workloadDef{name: "fixture", proxied: proxied}, cfg, "", ck)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	out := map[string]phaseResult{}
	for i, p := range []phaseDef{
		{name: "single", readers: oneCaller, single: true},
		{name: "batch16", readers: oneCaller},
		{name: "apply", writers: oneCaller},
		{name: "pipelined", readers: full},
	} {
		if out[p.name], err = w.runPhase(1<<10+i, p, d); err != nil {
			return nil, nil, err
		}
	}
	if failed := w.failed.Load(); failed > 0 {
		return nil, nil, fmt.Errorf("wire fixture (proxied %v): %d operations failed, first: %s", proxied, failed, *w.firstErr.Load())
	}
	return out, w.stack.snapshot(), nil
}

// genOnlyNS times the reader loop's own work for one frame: the
// generator, a transport stand-in that answers from the oracle, and
// the check of every answer.
func genOnlyNS(seed uint64, n int) float64 {
	r := newRand(seed, 1<<21, 0, false)
	pre := make([]oracle, 8)
	for i := range pre {
		pre[i], _ = newOracle([]int{rackNode(i, 0), rackNode(i, 1), rackNode(i, 2), rackNode(i, 3)})
	}
	xs, phis := make([]int, batchWidth), make([]int, batchWidth)
	bad := 0
	ns := perCall(n, func(int) {
		o := pre[genFrame(r, xs)%8]
		for j, x := range xs {
			phis[j] = o.phi(x)
		}
		if !verifyStatic(o, xs, phis) {
			bad++
		}
	})
	probeSink += bad
	return ns
}

// ratio returns the growth of counter num over the growth of counter
// den during a phase's traced episodes, and whether the program still
// reports both.
func ratio(counters map[string]float64, num, den string) (float64, bool) {
	n, ok1 := counters[num]
	d, ok2 := counters[den]
	return n / d, ok1 && ok2 && d != 0
}

// feeding returns the phase that reports the end-to-end metric; every
// workload has one for each.
func feeding(results []phaseResult, metric string) phaseResult {
	for _, res := range results {
		for _, f := range res.def.feeds {
			if f == metric {
				return res
			}
		}
	}
	panic("no phase reports " + metric)
}

// layerMetrics assembles the per-layer table of a traced run.
func (w *world) layerMetrics(results []phaseResult, final map[string]float64, lags []int64, records int, recoverSeconds float64) (metricSet, error) {
	ms := metricSet{}
	proxyCounters, err := probeLayers(w.cfg, w.clock, ms)
	if err != nil {
		return nil, err
	}
	orAbsent := func(name string, v float64, ok bool, note string) {
		if !ok {
			ms.setNote(name, absent, "absent")
			return
		}
		ms.setNote(name, v, note)
	}

	// Program-side counters, as changes over the phase that reports
	// the end-to-end metric they should move.
	writes, reads := feeding(results, "writes_per_s"), feeding(results, "lookups_per_s")
	wNote := "over the " + writes.def.name + " phase"
	hits, okH := writes.counters["stats.cache.hits"]
	misses, okM := writes.counters["stats.cache.misses"]
	orAbsent("fleet.cache_hit_ratio", hits/(hits+misses), okH && okM && hits+misses > 0, wNote)
	for _, stage := range []string{"append", "fsync_wait", "publish", "fanout"} {
		name := "ftnet_commit_" + stage + "_seconds"
		v, ok := ratio(writes.counters, name+":sum", name+":count")
		orAbsent("commit."+stage+"_mean_ns", v, ok, wNote)
	}
	v, ok := ratio(writes.counters, "stats.journal.bytes", "stats.journal.records")
	orAbsent("journal.bytes_per_record", v, ok, wNote)
	v, ok = ratio(writes.counters, "stats.journal.syncs", "stats.journal.records")
	orAbsent("journal.syncs_per_record", v, ok, wNote)

	rNote := "over the " + reads.def.name + " phase"
	v, ok = ratio(reads.counters, "ftnet_rpc_flush_frames:sum", "ftnet_rpc_flush_frames:count")
	orAbsent("wire.flush_frames_mean", v, ok, rNote)
	in, okIn := ratio(reads.counters, "ftnet_rpc_bytes_in_total", "stats.lookups")
	out, okOut := ratio(reads.counters, "ftnet_rpc_bytes_out_total", "stats.lookups")
	orAbsent("wire.bytes_per_lookup", in+out, okIn && okOut, rNote+", both directions at the daemons")
	ms.setNote("wire.rtt_p99_us", reads.readRTT.p99/1e3, fmt.Sprintf("%d round trips at saturation", reads.readRTT.n))
	ms.setNote("wire.rtt_top_us", reads.readRTT.top/1e3, fmt.Sprintf("p%g, the highest percentile with ten samples beyond it", reads.readRTT.topRank))

	// The proxy rows come from every proxy this run booted: the
	// workload's own, when it has one, and the fixture's.
	for k, v := range final {
		proxyCounters[k] += v
	}
	sum, okS := proxyCounters["ftproxy_rpc_request_seconds:sum"]
	count, okC := proxyCounters["ftproxy_rpc_request_seconds:count"]
	orAbsent("proxy.request_mean_ns", sum/count, okS && okC && count > 0, fmt.Sprintf("%.0f requests", count))
	for metric, counter := range map[string]string{
		"proxy.redirects":       "ftproxy_rpc_redirects_total",
		"proxy.misroutes":       "ftproxy_rpc_misroutes_total",
		"proxy.upstream_errors": "ftproxy_rpc_upstream_errors_total",
	} {
		v, ok := proxyCounters[counter]
		orAbsent(metric, v, ok, "")
	}

	ms.setNote("fleet.recover_ns_per_record", recoverSeconds*1e9/float64(records), fmt.Sprintf("%d records", records))
	lagNS := make([]float64, len(lags))
	for i, l := range lags {
		lagNS[i] = float64(l)
	}
	orAbsent("commit.fanout_lag_p50_us", median(lagNS)/1e3, len(lags) > 0, fmt.Sprintf("%d entries", len(lags)))

	// The ladder: self times from the spans of LookupBatch and ApplyBatch
	// frames; every workload sends both.
	var spans []span
	for _, res := range results {
		spans = append(spans, res.spans...)
	}
	readTotal, readSelf := selfTimes(spans, "client.lookup_batch")
	writeTotal, writeSelf := selfTimes(spans, "client.apply_batch")
	ladder := func(metric string, from map[string]float64, rung string) {
		v, ok := from[rung]
		orAbsent(metric, v, ok, "median over sampled frames")
	}
	ladder("ladder.read_wire_self_ns", readSelf, "client.lookup_batch")
	ladder("ladder.read_manager_self_ns", readSelf, "manager.lookup")
	ladder("ladder.read_instance_self_ns", readSelf, "instance.lookup")
	ladder("ladder.read_mapping_ns", readTotal, "mapping.phi")
	ladder("ladder.write_wire_self_ns", writeSelf, "client.apply_batch")
	ladder("ladder.write_manager_ns", writeTotal, "manager.apply_batch")
	ladder("ladder.write_mapping_ns", writeTotal, "mapping.new")

	// Tracing overhead: the rate lost between the two halves of the
	// workload's main saturation phase.
	ms.setNote("bench.trace_overhead_frac", absent, "absent")
	for _, res := range results {
		if res.plainLookupRate > 0 {
			ms.setNote("bench.trace_overhead_frac", 1-res.lookupRate/res.plainLookupRate, "lookups, "+res.def.name+" phase")
			break
		}
		if res.plainWriteRate > 0 {
			ms.setNote("bench.trace_overhead_frac", 1-res.writeRate/res.plainWriteRate, "writes, "+res.def.name+" phase")
			break
		}
	}

	path, err := writeTrace(w.cfg.outDir, w.def.name, results)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	return ms, nil
}
