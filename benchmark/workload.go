package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A workload is a stack (one daemon, or a proxy in front of three), a
// kind of fault pattern, and a schedule of phases. Every phase is a
// closed loop: each caller sends its next frame when the reply to the
// last one has arrived, which is what a router asking "where does x
// run now?" does.
type workloadDef struct {
	name    string
	why     string
	proxied bool
	unique  bool // writers' fault sets never repeat, instead of recurring
	phases  []phaseDef
}

// phaseDef is one timed stretch. Caller counts are in quarters of the
// client's full load (8 callers per connection), or exactly one.
type phaseDef struct {
	name    string
	share   float64 // of the run's --seconds
	readers int
	writers int
	single  bool     // readers send single Lookup frames, the smallest message, instead of LookupBatch-16
	feeds   []string // the end-to-end metrics this phase reports
}

const (
	oneCaller = -1
	full      = 4
)

// The schedules. The long phases of a workload are the ones it exists
// for; the short cross phases are there because the driver wants every
// end-to-end metric from every workload, and they reuse the same
// caller loops.
var (
	readSchedule = []phaseDef{
		{name: "warm-up", share: 2.0 / 18, readers: full},
		{name: "saturation", share: 8.0 / 18, readers: full, feeds: []string{"lookups_per_s"}},
		{name: "solo", share: 3.0 / 18, readers: oneCaller, single: true, feeds: []string{"lookup_rtt_p50_us"}},
		{name: "cross-saturation", share: 3.0 / 18, writers: full, feeds: []string{"writes_per_s"}},
		{name: "cross-solo", share: 2.0 / 18, writers: oneCaller, feeds: []string{"write_rtt_p50_us"}},
	}
	writeSchedule = []phaseDef{
		{name: "warm-up", share: 2.0 / 18, writers: full},
		{name: "saturation", share: 8.0 / 18, writers: full, feeds: []string{"writes_per_s"}},
		{name: "solo", share: 3.0 / 18, writers: oneCaller, feeds: []string{"write_rtt_p50_us"}},
		{name: "cross-saturation", share: 3.0 / 18, readers: full, feeds: []string{"lookups_per_s"}},
		{name: "cross-solo", share: 2.0 / 18, readers: oneCaller, single: true, feeds: []string{"lookup_rtt_p50_us"}},
	}
	mixedSchedule = []phaseDef{
		{name: "warm-up", share: 2.0 / 18, readers: 3, writers: 1},
		{name: "saturation", share: 10.0 / 18, readers: 3, writers: 1, feeds: []string{"lookups_per_s", "writes_per_s"}},
		{name: "solo", share: 3.0 / 18, readers: oneCaller, writers: 1, single: true, feeds: []string{"lookup_rtt_p50_us"}},
		{name: "cross-solo", share: 3.0 / 18, readers: 3, writers: oneCaller, feeds: []string{"write_rtt_p50_us"}},
	}
)

var workloads = []workloadDef{
	{
		name:   "read-direct",
		why:    "LookupBatch-16 frames against one daemon on static instances: wire and fleet lookup do all the work, the baseline every other workload is read against",
		phases: readSchedule,
	},
	{
		name:    "read-proxy",
		why:     "the same frames through wire.Proxy to three ring-sharded daemons: differs from read-direct only by the hop, so proxy and shard work shows here alone",
		proxied: true,
		phases:  readSchedule,
	},
	{
		name:   "write-durable",
		why:    "ApplyBatch-4 bursts with the journal on fsync-always and recurring fault sets that fit the mapping cache: commit, journal and ft apply do the work, then the journal is replayed",
		phases: writeSchedule,
	},
	{
		name:   "mixed-storm",
		why:    "a quarter of the callers write fault sets that never repeat while the rest read on the same connections: a read gain that costs writes, or a lookup queued behind a commit, shows here",
		unique: true,
		phases: mixedSchedule,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string    // inside the checkout: trace files and the disk probe
	began   time.Time // spans count their nanoseconds from here

	// journalDir holds every journal of the run, see journalRoot.
	journalDir string
}

// conns is the client's connection pool: the workloads are 2
// connections with 8 callers on each wherever they run.
const conns = 2

const (
	setupReps     = 42      // set-ups per run beside the first; setup_s is their median
	recoverPasses = 5       // journal replays per run; the rate is from the fastest
	traceEvery    = 64      // a traced run sends every 64th frame down the ladder
	prefixFrames  = 32      // frames of each reader kept as sent
	maxSamples    = 1 << 19 // round trips one timed caller keeps

	recoverWait   = 15 * time.Second       // the longest a run's replays wait for the base clock, in all
	episodeLength = 100 * time.Millisecond // see world.run
	maxRounds     = 6                      // see runWorkload
)

// world is one set-up: the stack, the client and the benchmark's own
// record of every instance.
type world struct {
	def   workloadDef
	cfg   runConfig
	dir   string // journal directory
	stack *stack
	cl    client
	inst  []instState
	clock *clock

	// history is set for workloads that read while they write: every
	// acked burst's fault set is kept, so reads can be checked against
	// the epoch they returned.
	history bool

	attempted atomic.Int64 // callers add their own tallies when a phase ends
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

func (w *world) fail(format string, args ...any) {
	w.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	w.firstErr.CompareAndSwap(nil, &msg)
}

// journalRoot picks where journals live: tmpfs when there is a
// writable one, because on a shared disk the device, not the program,
// sets the write rate; otherwise a directory of the checkout.
func journalRoot(outDir string) (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "ftnet-benchmark-"); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "journal-")
}

// setUp boots the stack, creates the instances, dials, and faults
// every instance to half its budget through the client. An empty
// journalDir boots the daemons without journals.
func setUp(def workloadDef, cfg runConfig, journalDir string, ck *clock) (*world, error) {
	w := &world{def: def, cfg: cfg, dir: journalDir, clock: ck}
	for _, p := range def.phases {
		w.history = w.history || (p.readers != 0 && p.writers != 0)
	}
	var err error
	if w.stack, err = startStack(def.proxied, journalDir); err != nil {
		return nil, err
	}
	w.inst = make([]instState, numInstances)
	for i := range w.inst {
		st := &w.inst[i]
		st.id = instanceID(i)
		st.idBytes = []byte(st.id)
		st.rackOn = -1
		if err := w.stack.create(st.id); err != nil {
			w.stack.close()
			return nil, err
		}
	}
	if w.cl, err = dial(w.stack.addr, conns); err != nil {
		w.stack.close()
		return nil, err
	}
	events := make([]event, preFaults)
	for i := range w.inst {
		st := &w.inst[i]
		st.faults = make([]int, preFaults)
		for j := range events {
			st.faults[j] = rackNode(i%8, j)
			events[j] = faultEvent(st.faults[j])
		}
		if st.epoch, err = w.cl.applyBatch(st.id, events); err != nil {
			w.close()
			return nil, err
		}
		st.historyBase = st.epoch
		st.history = []faultSet{packFaults(st.faults)}
	}
	return w, w.refreshOracles()
}

// refreshOracles rebuilds every instance's oracle from its fault set;
// phases without writers verify every answer against them.
func (w *world) refreshOracles() error {
	for i := range w.inst {
		o, err := newOracle(w.inst[i].faults)
		if err != nil {
			return err
		}
		w.inst[i].oracle = o
	}
	return nil
}

// close hangs up and shuts the stack down, which flushes the journals.
func (w *world) close() error {
	w.cl.close()
	return w.stack.close()
}

// caller is one closed-loop caller: its generator, its place in its
// stream, and its tally. A phase runs it in a fresh goroutine every
// episode.
type caller struct {
	index     int
	r         *rand.Rand
	frame     uint64 // frames sent so far in this phase
	cursor    int    // a writer's place among the instances it owns
	lookups   int64  // phi values returned and checked
	writes    int64  // bursts acked
	attempted int64
	lastEpoch []uint64 // a reader beside writers: the last epoch seen, by instance
	rtts      []int32  // round trips in ns, when this caller is timed
	prefix    []byte   // a reader's first LookupBatch frames as encoded, for comparing streams
	samples   []readSample
	spans     []span
	sink      int // keeps the ladder's untimed results alive
}

// readSample is a read kept for checking after the phase, when the
// fault set at its epoch is known.
type readSample struct {
	inst  int
	epoch uint64
	n     int
	xs    [batchWidth]int32
	phis  [batchWidth]int32
}

// phaseResult is what one phase measured over the whole run.
type phaseResult struct {
	def        phaseDef
	episodes   int     // the episodes the figures are taken from: those at the base clock
	ofEpisodes int     // all the phase's episodes
	lookupRate float64 // phi values per second, the episodes' upper quartile
	writeRate  float64 // bursts per second, the episodes' upper quartile
	readP50    float64 // the solo reader's median round trip in ns, the episodes' lower quartile
	writeP50   float64 // the solo writer's
	frames     int64
	elapsed    time.Duration // the episodes' own time
	mallocs    uint64        // heap allocations of the whole process during the episodes
	readRTT    percentiles   // the timed readers' round trips, pooled over the phase
	writeRTT   percentiles
	spans      []span
	prefixes   [][]byte // every reader's first frames as encoded, by caller index

	// A traced run measures half of every saturation chunk without the
	// ladder: these are that half's rates. counters holds how much each
	// program-side counter grew over the traced episodes.
	plainLookupRate float64
	plainWriteRate  float64
	counters        map[string]float64
}

// episode is what one episode of a phase measured.
type episode struct {
	lookupRate, writeRate float64 // per second
	readP50, writeP50     float64 // the solo caller's median round trip in ns, when there is one
	plain                 bool    // a traced run's episode without the ladder
	clock                 float64 // the shorter of the clock probes before and after, see clock
}

// phase is one phase of a run in progress. A run visits its phases in
// rounds, so a phase's episodes are spread over the whole run and a
// disturbance of a second or two falls on every phase alike.
type phase struct {
	def     phaseDef
	traced  bool
	readers []*caller
	writers []*caller

	episodes []episode

	elapsed  time.Duration
	mallocs  uint64
	counters map[string]float64
}

func callers(quarters int) int {
	switch quarters {
	case oneCaller:
		return 1
	case 0:
		return 0
	}
	return max(1, 8*conns*quarters/4)
}

func (w *world) newPhase(index int, def phaseDef, traced bool) *phase {
	p := &phase{def: def, traced: traced, counters: map[string]float64{}}
	nr, nw := callers(def.readers), callers(def.writers)
	for i := 0; i < nr; i++ {
		c := &caller{index: i, r: newRand(w.cfg.seed, index, i, false)}
		if nw > 0 {
			c.lastEpoch = make([]uint64, numInstances)
		}
		if traced || def.readers == oneCaller {
			c.rtts = make([]int32, 0, maxSamples)
		}
		p.readers = append(p.readers, c)
	}
	for i := 0; i < nw; i++ {
		c := &caller{index: i, cursor: i, r: newRand(w.cfg.seed, index, i, true)}
		if traced || def.writers == oneCaller {
			c.rtts = make([]int32, 0, maxSamples)
		}
		p.writers = append(p.writers, c)
	}
	return p
}

// run runs the phase for d. With ladder set, every 64th frame goes down
// the ladder and the program's counters are read before and after.
//
// The time is cut into episodes of about episodeLength, and every
// episode runs the callers in fresh goroutines. On this kind of box a
// set of goroutines settles, for as long as it lives, into one of a
// few regimes of who wakes whom, and the regimes differ by a third in
// round-trip time. One long episode measures one draw; many short ones
// measure their mix. Rates and median round trips are therefore taken
// per episode, and the phase reports a quartile of them, see result.
func (w *world) run(p *phase, d time.Duration, ladder bool) error {
	if len(p.writers) == 0 {
		if err := w.refreshOracles(); err != nil {
			return err
		}
	}
	var before map[string]float64
	if ladder {
		before = w.stack.snapshot()
	}
	mallocsBefore := mallocs()
	episodes := max(1, int(d/episodeLength))
	probe := w.clock.probe()
	for e := 0; e < episodes; e++ {
		lookups, writes := sum(p.readers, false), sum(p.writers, true)
		readMark, writeMark := 0, 0
		if p.def.readers == oneCaller {
			readMark = len(p.readers[0].rtts)
		}
		if p.def.writers == oneCaller {
			writeMark = len(p.writers[0].rtts)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range p.readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.read(c, &stop, p.def.single, ladder)
			}()
		}
		for _, c := range p.writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.write(c, &stop, len(p.writers), ladder)
			}()
		}
		time.Sleep(d / time.Duration(episodes))
		stop.Store(true)
		wg.Wait()
		dt := time.Since(start)
		p.elapsed += dt
		ep := episode{
			lookupRate: float64(sum(p.readers, false)-lookups) / dt.Seconds(),
			writeRate:  float64(sum(p.writers, true)-writes) / dt.Seconds(),
			plain:      p.traced && !ladder,
			clock:      probe,
		}
		probe = w.clock.probe()
		ep.clock = min(ep.clock, probe)
		if p.def.readers == oneCaller {
			ep.readP50 = p50(p.readers[0].rtts[readMark:])
		}
		if p.def.writers == oneCaller {
			ep.writeP50 = p50(p.writers[0].rtts[writeMark:])
		}
		p.episodes = append(p.episodes, ep)
	}
	p.mallocs += mallocs() - mallocsBefore
	if ladder {
		for name, v := range w.stack.snapshot() {
			if b, ok := before[name]; ok {
				p.counters[name] += v - b
			}
		}
	}
	return nil
}

// result closes the phase: it checks the reads kept for later and
// folds the episodes into one figure each.
func (w *world) result(p *phase) phaseResult {
	res := phaseResult{def: p.def, elapsed: p.elapsed, mallocs: p.mallocs, counters: p.counters}
	var plain, kept []episode
	for _, ep := range p.episodes {
		if ep.plain {
			plain = append(plain, ep)
		} else {
			kept = append(kept, ep)
		}
	}
	res.ofEpisodes = len(kept)
	episodeClock := func(ep episode) float64 { return ep.clock }
	plain, kept = atBase(w.clock, plain, 4, episodeClock), atBase(w.clock, kept, 4, episodeClock)
	res.episodes = len(kept)
	// What disturbs an episode, a neighbour on the host, only ever slows
	// it, by up to a third and at bad times in most episodes of a run.
	// So a phase reports its good quartile: the rate that a quarter of
	// its episodes reach or beat, the median round trip that a quarter
	// stay at or under. That is what the program does when let alone,
	// and it repeats from run to run where a mean or a median follows
	// the neighbour.
	good := func(eps []episode, q float64, f func(episode) float64) float64 {
		vs := make([]float64, len(eps))
		for i, ep := range eps {
			vs[i] = f(ep)
		}
		return quantile(vs, q)
	}
	res.lookupRate = good(kept, 0.75, func(ep episode) float64 { return ep.lookupRate })
	res.writeRate = good(kept, 0.75, func(ep episode) float64 { return ep.writeRate })
	res.readP50 = good(kept, 0.25, func(ep episode) float64 { return ep.readP50 })
	res.writeP50 = good(kept, 0.25, func(ep episode) float64 { return ep.writeP50 })
	res.plainLookupRate = good(plain, 0.75, func(ep episode) float64 { return ep.lookupRate })
	res.plainWriteRate = good(plain, 0.75, func(ep episode) float64 { return ep.writeRate })
	var readRTTs, writeRTTs []int32
	for _, c := range p.readers {
		w.attempted.Add(c.attempted)
		readRTTs = append(readRTTs, c.rtts...)
		res.spans = append(res.spans, c.spans...)
		res.prefixes = append(res.prefixes, c.prefix)
		w.checkSamples(c.samples)
	}
	for _, c := range p.writers {
		w.attempted.Add(c.attempted)
		writeRTTs = append(writeRTTs, c.rtts...)
		res.spans = append(res.spans, c.spans...)
	}
	res.readRTT, res.writeRTT = summarise(readRTTs), summarise(writeRTTs)
	width := int64(batchWidth)
	if p.def.single {
		width = 1
	}
	res.frames = sum(p.readers, false)/width + sum(p.writers, true)
	return res
}

// runPhase runs one phase in one stretch of d, untraced: what the
// layer probes use.
func (w *world) runPhase(index int, def phaseDef, d time.Duration) (phaseResult, error) {
	p := w.newPhase(index, def, false)
	err := w.run(p, d, false)
	return w.result(p), err
}

func sum(cs []*caller, writes bool) int64 {
	var n int64
	for _, c := range cs {
		if writes {
			n += c.writes
		} else {
			n += c.lookups
		}
	}
	return n
}

// read runs one reader until stop. Without writers in the phase every
// answer is compared with the instance's oracle at once. Beside
// writers the fault set behind an answer is only known later, so every
// 64th frame is kept for checkSamples, and every frame must see its
// instance's epoch stand still or grow.
func (w *world) read(c *caller, stop *atomic.Bool, single, traced bool) {
	var xsBuf, phisBuf [batchWidth]int
	xs, phis := xsBuf[:], phisBuf[:]
	if single {
		xs, phis = xs[:1], phis[:1]
	}
	timed, storm := c.rtts != nil, c.lastEpoch != nil
	var t0, t1 time.Time
	for ; !stop.Load(); c.frame++ {
		i := genFrame(c.r, xs)
		st := &w.inst[i]
		if timed {
			t0 = time.Now()
		}
		var epoch uint64
		var err error
		if single {
			phis[0], epoch, err = w.cl.lookup(st.id, xs[0])
		} else {
			epoch, err = w.cl.lookupBatch(st.id, xs, phis)
		}
		if timed {
			t1 = time.Now()
			if len(c.rtts) < cap(c.rtts) {
				c.rtts = append(c.rtts, int32(t1.Sub(t0)))
			}
		}
		c.attempted++
		if c.frame < prefixFrames && !single {
			c.prefix, _ = encodeLookupBatch(c.prefix, c.frame, st.id, xs)
		}
		if err != nil {
			w.fail("read %s: %v", st.id, err)
			continue
		}
		switch {
		case !storm:
			if epoch != st.epoch || !verifyStatic(st.oracle, xs, phis) {
				w.fail("read %s at epoch %d: answer differs from a fresh mapping at epoch %d", st.id, epoch, st.epoch)
				continue
			}
		case epoch < c.lastEpoch[i]:
			w.fail("read %s: epoch went back from %d to %d", st.id, c.lastEpoch[i], epoch)
			continue
		default:
			c.lastEpoch[i] = epoch
			if c.frame%traceEvery == 0 {
				s := readSample{inst: i, epoch: epoch, n: len(xs)}
				for j := range xs {
					s.xs[j], s.phis[j] = int32(xs[j]), int32(phis[j])
				}
				c.samples = append(c.samples, s)
			}
		}
		c.lookups += int64(len(xs))
		if traced && c.frame%traceEvery == 0 {
			w.readLadder(c, c.frame, st, xs, t0, t1)
		}
	}
}

// checkSamples verifies the reads kept beside writers against the
// fault set their instance had at the epoch they returned.
func (w *world) checkSamples(samples []readSample) {
	xs, phis := make([]int, batchWidth), make([]int, batchWidth)
	for _, s := range samples {
		w.attempted.Add(1)
		st := &w.inst[s.inst]
		faults, ok := st.faultsAt(s.epoch)
		if !ok {
			w.fail("read %s returned epoch %d, which no acked burst produced", st.id, s.epoch)
			continue
		}
		o, err := newOracle(faults)
		if err != nil {
			w.fail("oracle for %s at epoch %d: %v", st.id, s.epoch, err)
			continue
		}
		for j := 0; j < s.n; j++ {
			xs[j], phis[j] = int(s.xs[j]), int(s.phis[j])
		}
		if !verifyStatic(o, xs[:s.n], phis[:s.n]) {
			w.fail("read %s at epoch %d: answer differs from a fresh mapping", st.id, s.epoch)
		}
	}
}

// write runs one writer until stop, over the instances it owns in this
// phase: instance i belongs to writer i mod n, so no two bursts
// conflict and every ack must carry the epoch after the one before.
func (w *world) write(c *caller, stop *atomic.Bool, n int, traced bool) {
	timed := c.rtts != nil
	var t0, t1 time.Time
	for ; !stop.Load(); c.frame++ {
		st := &w.inst[c.cursor]
		if c.cursor += n; c.cursor >= numInstances {
			c.cursor = c.index
		}
		b := st.plan(c.r, w.def.unique)
		if timed {
			t0 = time.Now()
		}
		epoch, err := w.cl.applyBatch(st.id, b.events[:])
		if timed {
			t1 = time.Now()
			if len(c.rtts) < cap(c.rtts) {
				c.rtts = append(c.rtts, int32(t1.Sub(t0)))
			}
		}
		c.attempted++
		if err != nil {
			w.fail("write %s: %v", st.id, err)
			continue
		}
		if epoch != st.epoch+1 {
			w.fail("write %s: acked at epoch %d, want %d", st.id, epoch, st.epoch+1)
		}
		back := burst{events: b.inverse(), faults: st.faults, rackOn: st.rackOn, roll: st.roll}
		st.commit(b, epoch, w.history)
		c.writes++
		if traced && c.frame%traceEvery == 0 {
			w.writeLadder(c, c.frame, st, b, back, t0, t1)
		}
	}
}

// recoverAndVerify replays every daemon's journal into a fresh manager
// recoverPasses times, and checks on the last pass that every instance
// came back at its last acked epoch with the mapping a fresh build
// gives. It returns the records replayed and the time of the fastest
// pass: like an episode, a replay is only ever slowed by a neighbour.
func (w *world) recoverAndVerify() (records int, seconds float64, err error) {
	type replay struct{ seconds, clock float64 }
	var replays []replay
	var last []manager
	closeLast := func() {
		for _, m := range last {
			m.close()
		}
	}
	defer closeLast()
	wait := recoverWait
	for pass := 0; pass < recoverPasses; pass++ {
		closeLast()
		last, records = last[:0], 0
		var probe float64
		probe, wait = w.clock.waitForBase(wait)
		start := time.Now()
		for _, d := range w.stack.daemons {
			m, n, err := recoverJournal(d.journal)
			if err != nil {
				return 0, 0, fmt.Errorf("recover %s: %w", d.journal, err)
			}
			last = append(last, m)
			records += n
		}
		replays = append(replays, replay{time.Since(start).Seconds(), min(probe, w.clock.probe())})
	}
	seconds = math.Inf(1)
	for _, r := range atBase(w.clock, replays, 1, func(r replay) float64 { return r.clock }) {
		seconds = min(seconds, r.seconds)
	}

	byDaemon := map[*daemon]manager{}
	for i, d := range w.stack.daemons {
		byDaemon[d] = last[i]
	}
	const chunk = 512
	xs, phis := make([]int, chunk), make([]int, chunk)
	for i := range w.inst {
		st := &w.inst[i]
		w.attempted.Add(1)
		in, ok := byDaemon[w.stack.owner(st.idBytes)].instance(st.idBytes)
		if !ok {
			w.fail("recovery lost %s", st.id)
			continue
		}
		o, err := newOracle(st.faults)
		if err != nil {
			return 0, 0, err
		}
		for base := 0; base < nTarget; base += chunk {
			for j := range xs {
				xs[j] = base + j
			}
			epoch, err := in.lookupBatch(xs, phis)
			if err != nil || epoch != st.epoch || !verifyStatic(o, xs, phis) {
				w.fail("recovered %s at epoch %d (err %v): want epoch %d and a bit-identical mapping", st.id, epoch, err, st.epoch)
				break
			}
		}
	}
	return records, seconds, nil
}

// runResult is one run's output.
type runResult struct {
	phases    []phaseResult
	metrics   metricSet
	attempted int64
	failed    int64
	firstErr  string // the first failed operation, "" when none failed
}

// runWorkload is one run: several set-ups, the phases, the replay.
func runWorkload(def workloadDef, cfg runConfig) (runResult, error) {
	var none runResult
	journals, err := os.MkdirTemp(cfg.journalDir, def.name+"-")
	if err != nil {
		return none, err
	}
	defer os.RemoveAll(journals)

	// Every set-up is timed on its own. The first one stays up for the
	// phases; the others are torn down at once, and they come in
	// batches between the rounds, so that a stretch at the fast clock
	// catches a few of them and not all.
	ck := &clock{}
	type timedSetup struct{ seconds, clock float64 }
	var setups []timedSetup
	timedSetUp := func() (*world, error) {
		dir, err := os.MkdirTemp(journals, "setup-")
		if err != nil {
			return nil, err
		}
		probe := ck.probe()
		start := time.Now()
		w, err := setUp(def, cfg, dir, ck)
		if err != nil {
			return nil, err
		}
		setups = append(setups, timedSetup{time.Since(start).Seconds(), min(probe, ck.probe())})
		return w, nil
	}
	w, err := timedSetUp()
	if err != nil {
		return none, err
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()

	ms := metricSet{}

	var lagStop chan struct{}
	var lagOut []<-chan []int64
	if cfg.trace {
		lagStop = make(chan struct{})
		for _, d := range w.stack.daemons {
			out, err := d.mgr.subscribeLag(lagStop)
			if err != nil {
				close(lagStop)
				return none, err
			}
			lagOut = append(lagOut, out)
		}
	}

	// The first phase warms up once; the others take turns, round after
	// round. A traced run measures each saturation chunk twice, half
	// the time without the ladder and half with it; the drop in rate
	// is the tracing overhead.
	rounds := min(maxRounds, max(1, int(cfg.seconds/3)))
	phases := make([]*phase, len(def.phases))
	for i, pd := range def.phases {
		phases[i] = w.newPhase(i, pd, cfg.trace)
	}
	for round := 0; round < rounds; round++ {
		for rep := 0; rep < setupReps/rounds; rep++ {
			spare, err := timedSetUp()
			if err != nil {
				return none, err
			}
			if err := spare.close(); err != nil {
				return none, err
			}
			if err := os.RemoveAll(spare.dir); err != nil {
				return none, err
			}
		}
		for i, p := range phases {
			d := time.Duration(p.def.share * cfg.seconds * float64(time.Second))
			if i == 0 {
				if round > 0 {
					continue
				}
			} else {
				d /= time.Duration(rounds)
			}
			if cfg.trace && len(p.def.feeds) > 0 && p.def.readers != oneCaller && p.def.writers != oneCaller {
				d /= 2
				if err := w.run(p, d, false); err != nil {
					return none, err
				}
			}
			if err := w.run(p, d, cfg.trace); err != nil {
				return none, err
			}
		}
	}
	var results []phaseResult
	for _, p := range phases {
		results = append(results, w.result(p))
	}
	for _, res := range results {
		for _, feed := range res.def.feeds {
			episodes := fmt.Sprintf("good quartile of %d of %d episodes over %.1f s", res.episodes, res.ofEpisodes, res.elapsed.Seconds())
			switch feed {
			case "lookups_per_s":
				ms.setNote(feed, res.lookupRate, episodes)
			case "writes_per_s":
				ms.setNote(feed, res.writeRate, episodes)
			case "lookup_rtt_p50_us":
				ms.setNote(feed, res.readP50/1e3, episodes+"; "+res.readRTT.note())
			case "write_rtt_p50_us":
				ms.setNote(feed, res.writeP50/1e3, episodes+"; "+res.writeRTT.note())
			}
		}
	}

	// By now the probes around the episodes have settled what the base
	// clock is, so the set-ups can be told apart.
	all := len(setups)
	setups = atBase(ck, setups, 4, func(s timedSetup) float64 { return s.clock })
	seconds := make([]float64, len(setups))
	for i, s := range setups {
		seconds[i] = s.seconds
	}
	ms.setNote("setup_s", median(seconds), fmt.Sprintf("median of %d of %d set-ups, journal on %s", len(seconds), all, fsType(cfg.journalDir)))

	var lags []int64
	if cfg.trace {
		close(lagStop)
		for _, out := range lagOut {
			lags = append(lags, <-out...)
		}
	}
	final := w.stack.snapshot()
	closed = true
	if err := w.close(); err != nil {
		return none, fmt.Errorf("close: %w", err)
	}
	records, replay, err := w.recoverAndVerify()
	if err != nil {
		return none, err
	}
	ms.setNote("recover_records_per_s", float64(records)/replay, fmt.Sprintf("%d records, fastest of %d replays", records, recoverPasses))

	if cfg.trace {
		if ms, err = w.layerMetrics(results, final, lags, records, replay); err != nil {
			return none, err
		}
	}
	out := runResult{phases: results, metrics: ms, attempted: w.attempted.Load(), failed: w.failed.Load()}
	if msg := w.firstErr.Load(); msg != nil {
		out.firstErr = *msg
	}
	return out, nil
}
