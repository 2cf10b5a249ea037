package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ftnet/internal/commit"
	"ftnet/internal/ft"
	"ftnet/internal/journal"
	"ftnet/internal/shuffle"
)

// pipeline is the manager-wide commit machinery every instance shares:
// the ordered commit log (journal + snapshot publish + subscriber
// fan-out) and the compaction gate. Writers hold the gate shared for
// the duration of one commit round — taken once per Round, not once
// per transition; Compact holds it exclusive, so a checkpoint always
// captures a drained, fully-flushed fleet. Lock order: gate, then
// writer mutexes (a round waits for its first, only tries the later
// ones), then shard locks, then the log's own lock. An open round
// resolves its next instance through the shard maps while it holds the
// staged ones, so nothing may wait under a shard lock for a writer
// mutex a round can be holding: a copy is retired before the shard lock
// is taken, never under it. Two function bodies keep that order for
// every record that changes the registry — Manager.enter, which retires
// the copy it supersedes and then locks the shard, and Manager.leave,
// which locks the shard for a copy its caller has already retired.
type pipeline struct {
	gate     sync.RWMutex
	log      *commit.Log
	rejected rejections // bursts its instances refused, fleet-wide
}

// newPipeline returns a memory-only pipeline (tests and non-durable
// managers); NewManager attaches a journal writer via the log.
func newPipeline() *pipeline {
	return &pipeline{log: commit.NewLog(commit.Config{})}
}

// Instance is the live state machine for one fault-tolerant network.
// It consumes Fault/Repair events, validates them against the spare
// budget k, and publishes the resulting state as an immutable
// ft.Snapshot behind an atomic pointer, so the read path never blocks
// the write path (and vice versa): Lookup is a pointer load plus an
// array index — no mutex, no read lock.
//
// Writers serialize on a small mutex and derive the next snapshot
// copy-on-write (one O(k) sorted insert or delete per event); the
// validated fault slice is the next mapping, built in place by
// ft.Snapshot.Apply. A whole batch of events is validated and applied
// as one atomic transition: all-or-nothing, epoch +1, committed
// through the manager's shared commit pipeline — which journals the
// record, waits for durability, publishes the snapshot pointer, and
// fans the entry out to watch/replication subscribers, in that order.
type Instance struct {
	id      string
	spec    Spec
	nTarget int
	nHost   int
	psi     []int // SE->dB embedding for KindShuffle, nil otherwise

	pipe *pipeline // shared commit pipeline; never nil

	snap    atomic.Pointer[ft.Snapshot] // current state; never nil
	writeMu sync.Mutex                  // serializes event application and the lifecycle

	// next is the snapshot staged in an open Round, which holds writeMu
	// from Stage to Commit; publishNext, the commit's publish step,
	// stores it. Built once so that staging allocates no closure.
	next        *ft.Snapshot // guarded by writeMu
	publishNext func()

	// The lifecycle: see phase. peer is the new owner's URL while the
	// copy is fenced or moved; stagedBy the token of the handoff attempt
	// that staged an arriving copy, the only one whose commit it takes.
	// Both guarded by writeMu.
	phase    atomic.Uint32
	peer     string
	stagedBy uint64

	rejected rejections // bursts refused, by cause
	lookups  stripedCounter
}

// stripedCounter spreads a hot counter over cache-line-padded stripes
// so parallel Lookup callers do not serialize on one cache line; the
// stripe is picked from the lookup argument, which varies across
// callers. Load sums the stripes (approximate under concurrency, like
// any stats counter).
type stripedCounter struct {
	stripes [8]struct {
		n atomic.Uint64
		_ [56]byte // pad to a 64-byte cache line
	}
}

func (c *stripedCounter) Add(key int) { c.stripes[key&7].n.Add(1) }

// AddN counts a whole batch with one atomic (the vectorized lookup
// path).
func (c *stripedCounter) AddN(key, n int) { c.stripes[key&7].n.Add(uint64(n)) }

func (c *stripedCounter) Load() uint64 {
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].n.Load()
	}
	return sum
}

// phase is where one copy of an instance stands in its lifecycle: one
// word, assigned only under writeMu and only by the four transitions
// below (and by Manager.restore, for a copy nothing else can reach yet),
// readable with one atomic load — which is how resolve and displaced
// test it without the mutex.
//
//	phase     a write or delete is owed     moves on by
//	live      nil: it applies               fence(peer) -> fenced, retire("") -> gone
//	arriving  ErrUnavailable: retry         open() -> live, retire("") -> gone
//	fenced    ErrWrongShard naming peer     unfence() -> live, retire(peer) -> moved
//	moved     ErrWrongShard naming peer     nothing: it is on its way out of the registry
//	gone      ErrNotFound                   nothing, bar the undo of the retire that got it there
//
// stageMigration registers an arriving copy (through the raw door: it is
// never journaled), commitMigration opens it in the publish step of its
// OpMigrate record, abortMigration retires it instead. migrateOut fences
// a live copy to take the state it ships and unfences it when
// the handoff provably did not commit; otherwise completeMigration
// retires it toward the peer. moved is its own state, so a writer that
// held the pointer from before the cutover is owed the redirect whatever
// order anyone tests things in. Delete, a forwarded record that replaces
// or deletes a follower's copy, and a reset retire a copy to gone — as
// does reconcilePins, live to gone with no fenced in between: a write
// acked on that already stale copy between its probe and the retire goes
// with it (fencing a copy that turns out to be kept would bounce its
// writes to an owner that has no copy). The phase is also who serves the
// id, and all there is about that: resolve serves a live or fenced copy
// whatever the ring says, refuses an arriving one, and asks the ring
// about a moved or gone one as about an id with no copy here. Whichever
// of them answers lookups does so, until leave unregisters it, from the
// last snapshot it published.
type phase uint32

const (
	phaseLive     phase = iota // in service; what newInstance builds
	phaseArriving              // staged inbound copy: checkpoint received, handoff not committed
	phaseFenced                // outbound write fence up: the final state is captured, peer may own the id already
	phaseMoved                 // cut over to peer
	phaseGone                  // deleted, aborted, superseded or wiped
)

// at returns the copy's phase; it needs no lock.
func (in *Instance) at() phase { return phase(in.phase.Load()) }

func (in *Instance) arriving() bool { return in.at() == phaseArriving }

// errArriving is what a request for a staged copy is told, by refuse
// under the writer mutex and by resolve without it.
func errArriving[T key](id T) error {
	return errorf(ErrUnavailable, "fleet: instance %q is arriving (migration staged); retry shortly", id)
}

// refuse says what a write or delete that holds this pointer is owed:
// nil when it may go ahead. The caller holds writeMu — the mutex every
// transition is made under — so a write is either fully applied before
// a fence (acked, in the shipped state) or redirected, never silently
// dropped or double-applied, and a writer that raced a delete can never
// commit a transition record after its instance's delete record, which
// would poison recovery of a reused id.
func (in *Instance) refuse() error {
	switch in.at() {
	case phaseLive:
		return nil
	case phaseArriving:
		return errArriving(in.id)
	case phaseFenced, phaseMoved:
		return wrongShardf(in.peer, "fleet: instance %q migrated to %s", in.id, in.peer)
	default:
		return errorf(ErrNotFound, "fleet: instance %q deleted", in.id)
	}
}

// The four transitions, each called with writeMu held. One that does
// not apply from the copy's phase (see the table) leaves it as it is.

// fence puts a live copy's write fence up: from here its writes are
// redirected to peer, not applied. Any other copy is refused with what
// refuse says about it.
func (in *Instance) fence(peer string) error {
	if err := in.refuse(); err != nil {
		return err
	}
	in.peer = peer
	in.phase.Store(uint32(phaseFenced))
	return nil
}

// unfence lifts the fence: the copy is live again.
func (in *Instance) unfence() {
	if in.at() == phaseFenced {
		in.peer = ""
		in.phase.Store(uint32(phaseLive))
	}
}

// open puts an arriving copy in service.
func (in *Instance) open() {
	if in.arriving() {
		in.phase.Store(uint32(phaseLive))
	}
}

// retire takes the copy out of service for good: moved when to names
// the owner its holders should be sent to, gone otherwise. undo puts
// back what retire found, for the one caller whose record can fail to
// commit with the copy still this daemon's to serve (Delete); it too
// runs under writeMu.
func (in *Instance) retire(to string) (undo func()) {
	was, wasPeer := in.at(), in.peer
	switch {
	case was == phaseMoved || was == phaseGone:
	case to != "":
		in.peer = to
		in.phase.Store(uint32(phaseMoved))
	default:
		in.phase.Store(uint32(phaseGone))
	}
	return func() {
		in.peer = wasPeer
		in.phase.Store(uint32(was))
	}
}

// newInstance builds the instance in its zero-fault state, live and
// unregistered. The pipeline must be non-nil; it is shared across the
// manager's instances.
func newInstance(id string, spec Spec, pipe *pipeline) (*Instance, error) {
	if err := checkNew(id, spec); err != nil {
		return nil, err
	}
	in := &Instance{id: id, spec: spec, pipe: pipe}
	in.nTarget, in.nHost = spec.Sizes()
	if spec.Kind == KindShuffle {
		psi, err := shuffle.EmbedIntoDeBruijn(spec.H)
		if err != nil {
			return nil, err
		}
		in.psi = psi
	}
	s, err := ft.NewSnapshot(in.nTarget, in.nHost, spec.K)
	if err != nil {
		return nil, err
	}
	in.snap.Store(s)
	in.publishNext = func() { in.snap.Store(in.next) }
	return in, nil
}

// checkNew is what newInstance asks of an id and a spec before it
// builds anything.
func checkNew(id string, spec Spec) error {
	if id == "" {
		return fmt.Errorf("fleet: empty instance id")
	}
	return spec.Validate()
}

// ID returns the instance identifier.
func (in *Instance) ID() string { return in.id }

// Spec returns the topology spec the instance was created with.
func (in *Instance) Spec() Spec { return in.spec }

// Apply consumes one fault or repair event. Invalid events — unknown
// kind, node out of range, faulting an already-faulty node, exceeding
// the budget k, repairing a healthy node — are rejected with an error
// and leave the state untouched.
func (in *Instance) Apply(ev Event) (EventResult, error) {
	return in.ApplyBatch([]Event{ev})
}

// ApplyBatch consumes a whole fault burst as one atomic transition:
// the batch is validated in order against the evolving fault set, and
// either every event applies and the epoch advances by exactly one, or
// the first invalid event rejects the entire batch and the published
// snapshot is unchanged. Readers concurrently observe either the old
// epoch or the new one, never a partial burst. It is a round of one:
// Stage, then Commit.
func (in *Instance) ApplyBatch(events []Event) (EventResult, error) {
	var one roundOfOne
	r := one.round()
	res, err := r.Stage(in, events) // an empty round waits: never ErrRoundBusy
	if err != nil {
		return res, err
	}
	if err := r.Commit(); err != nil {
		return EventResult{}, err
	}
	return res, nil
}

// Stage is the first half of ApplyBatch: the burst is validated and
// applied copy-on-write, and its record sequenced and buffered in the
// journal, under the instance's writer mutex — which the round keeps
// until Commit, where the transition becomes durable and visible. The
// result is what ApplyBatch will have returned once Commit succeeds. A
// refused burst (any error) leaves the instance unlocked and the round
// as it was; ErrRoundBusy means "Commit the round, then Stage again".
func (r *Round) Stage(in *Instance, events []Event) (EventResult, error) {
	if len(events) == 0 {
		return in.reject(rejectedInvalid, nil, "empty event batch")
	}
	batch := make([]ft.Change, len(events))
	for i, ev := range events {
		switch ev.Kind {
		case EventFault:
			batch[i] = ft.Change{Node: ev.Node}
		case EventRepair:
			batch[i] = ft.Change{Node: ev.Node, Repair: true}
		default:
			return in.reject(rejectedInvalid, nil, "unknown event kind %q", ev.Kind)
		}
	}
	if !r.acquire(in) {
		return EventResult{}, ErrRoundBusy
	}
	res, err := r.stageLocked(in, batch)
	if err != nil {
		r.release(in)
	}
	return res, err
}

// stageLocked is Stage under in's writer mutex.
func (r *Round) stageLocked(in *Instance, batch []ft.Change) (EventResult, error) {
	if err := in.refuse(); err != nil {
		return EventResult{}, err
	}
	next, err := in.snap.Load().Apply(batch)
	if err != nil {
		switch {
		case errors.Is(err, ft.ErrBudget):
			return in.reject(rejectedBudget, ErrBudget, "%v", err)
		case errors.Is(err, ft.ErrConflict):
			return in.reject(rejectedConflict, ErrConflict, "%v", err)
		default:
			return in.reject(rejectedInvalid, nil, "%v", err)
		}
	}
	// One ordered commit, the writer mutex held across both halves: the
	// pipeline journals the record now and, at the round's Commit, waits
	// until it is durable (per the writer's fsync policy), publishes the
	// snapshot pointer, and only then fans the entry out to subscribers
	// — so an acknowledged transition is never lost, a recovered journal
	// never trails an epoch a client saw, and no watcher or follower
	// observes an epoch before readers can.
	rec := journal.Record{
		Op:      journal.OpTransition,
		ID:      in.id,
		Epoch:   next.Epoch(),
		Applied: len(batch),
		Faults:  next.Mapping().Faults,
	}
	if err := r.begin(in, rec, next); err != nil {
		return EventResult{}, err
	}
	r.events += len(batch)
	return EventResult{
		Epoch:     next.Epoch(),
		NumFaults: next.NumFaults(),
		Budget:    in.spec.K,
		Applied:   len(batch),
	}, nil
}

// restoredSnapshot rebuilds the snapshot a journaled (epoch, faults)
// state encodes. The fault set comes from outside this process, so it
// goes through ft.Restore's full validation (range, duplicates,
// budget) — the cheap receiver-side check Patra & Rangan style record
// forwarding relies on: corrupted or forged state is detected, never
// accepted. What it returns is a fresh ft.NewMapping by construction.
// The caller decides whether, and under what lock, to publish it.
func (in *Instance) restoredSnapshot(epoch uint64, faults []int) (*ft.Snapshot, error) {
	next, err := ft.Restore(in.nTarget, in.nHost, in.spec.K, epoch, faults)
	if err != nil {
		return nil, corruptStatef(in.id, epoch, err)
	}
	return next, nil
}

// corruptStatef is the refusal of a state record's fault set, by
// ft.Restore or by ft.CheckRestore.
func corruptStatef[T key](id T, epoch uint64, err error) error {
	return errorf(ErrCorruptRecord, "fleet: instance %s: restore epoch %d: %v", id, epoch, err)
}

// successor is the chain rule every forwarded or replayed transition
// record is held to: accepted transitions advance their instance's epoch
// by exactly one, so anything else is a gap, a replay or a reorder.
func successor[T key](id T, cur, next uint64) error {
	if next != cur+1 {
		return errorf(ErrCorruptRecord, "fleet: instance %s: epoch %d follows epoch %d (gap or reorder)", id, next, cur)
	}
	return nil
}

// replicate applies one forwarded transition record on a follower: the
// strict epoch chain is enforced, the fault set is validated and its
// mapping computed afresh, and the record is committed through the
// follower's own pipeline — journaled locally for restart, published,
// and fanned out to the follower's own subscribers (so watch streams
// chain).
func (in *Instance) replicate(rec journal.Record) error {
	var one roundOfOne
	r := one.round()
	r.acquire(in)
	if err := r.replicateLocked(in, rec); err != nil {
		r.release(in)
		return err
	}
	return r.Commit()
}

func (r *Round) replicateLocked(in *Instance, rec journal.Record) error {
	if err := in.refuse(); err != nil {
		return err
	}
	if err := successor(in.id, in.snap.Load().Epoch(), rec.Epoch); err != nil {
		return err
	}
	next, err := in.restoredSnapshot(rec.Epoch, rec.Faults)
	if err != nil {
		return err
	}
	return r.begin(in, rec, next)
}

// reject refuses a burst under category and files it under cause, on
// the instance and fleet-wide: the one count of a refusal.
func (in *Instance) reject(cause int, category error, format string, args ...any) (EventResult, error) {
	in.rejected[cause].Add(1)
	in.pipe.rejected[cause].Add(1)
	return EventResult{}, errorf(category, "fleet: instance %s: "+format,
		append([]any{in.id}, args...)...)
}

// The causes a refused burst is filed under, in RejectedStats's order.
const (
	rejectedBudget = iota
	rejectedConflict
	rejectedInvalid
)

// rejections counts refused bursts by cause.
type rejections [3]atomic.Uint64

func (r *rejections) stats() RejectedStats {
	return RejectedStats{Budget: r[rejectedBudget].Load(), Conflict: r[rejectedConflict].Load(), Invalid: r[rejectedInvalid].Load()}
}

// Snapshot returns the currently published state. Snapshots are
// immutable, so the result stays valid (for its epoch) after later
// events; it is the unit a persistence journal would record.
func (in *Instance) Snapshot() *ft.Snapshot { return in.snap.Load() }

// Lookup answers "where does target node x run now?": the healthy host
// node currently hosting x. It is safe to call concurrently with
// ApplyBatch and performs no mutex acquisition — one atomic pointer
// load, then an array index into the immutable snapshot.
func (in *Instance) Lookup(x int) (int, error) {
	phi, _, err := in.LookupEpoch(x)
	return phi, err
}

// LookupEpoch is Lookup plus the epoch of the snapshot that answered —
// one atomic pointer load covers both, so the pair is consistent.
func (in *Instance) LookupEpoch(x int) (int, uint64, error) {
	if x < 0 || x >= in.nTarget {
		return 0, 0, fmt.Errorf("fleet: instance %s: target node %d out of range [0,%d)",
			in.id, x, in.nTarget)
	}
	in.lookups.Add(x)
	if in.psi != nil {
		x = in.psi[x]
	}
	s := in.snap.Load()
	return s.Phi(x), s.Epoch(), nil
}

// LookupBatch resolves a whole vector of targets against one snapshot:
// phis[i] answers xs[i], and the returned epoch covers the entire
// batch (a concurrent writer's new epoch is seen by all entries or
// none). phis must have len(xs); any out-of-range target rejects the
// batch before any entry is written.
func (in *Instance) LookupBatch(xs, phis []int) (uint64, error) {
	if len(phis) != len(xs) {
		return 0, fmt.Errorf("fleet: instance %s: phis has len %d, want %d", in.id, len(phis), len(xs))
	}
	for _, x := range xs {
		if x < 0 || x >= in.nTarget {
			return 0, fmt.Errorf("fleet: instance %s: target node %d out of range [0,%d)",
				in.id, x, in.nTarget)
		}
	}
	if len(xs) > 0 {
		in.lookups.AddN(xs[0], len(xs))
	}
	s := in.snap.Load()
	if in.psi != nil {
		for i, x := range xs {
			phis[i] = s.Phi(in.psi[x])
		}
	} else {
		for i, x := range xs {
			phis[i] = s.Phi(x)
		}
	}
	return s.Epoch(), nil
}

// NTarget returns the number of target nodes (the valid lookup domain
// [0, NTarget)).
func (in *Instance) NTarget() int { return in.nTarget }

// Mapping returns the current reconfiguration map over host identities.
// Mappings are immutable, so the result stays valid (for its epoch)
// after later events. Note that for KindShuffle the map is indexed by
// de Bruijn identity; use RangePhi or Lookup for target-indexed
// answers.
func (in *Instance) Mapping() *ft.Mapping { return in.snap.Load().Mapping() }

// RangePhi calls fn(x, phi) for x = 0, 1, ... in target order against
// one immutable snapshot, stopping early if fn returns false. It
// materializes nothing — the iterator transports use to stream a
// million-node embedding without building a dense slice. What sets it
// apart from a window over everything is the KindDeBruijn sweep, O(n + k)
// for the whole instance; through psi (KindShuffle) there is no such
// sweep and it is that window, one O(log k) rank search an element.
func (in *Instance) RangePhi(fn func(x, phi int) bool) {
	if in.psi == nil {
		in.Mapping().RangePhi(fn)
		return
	}
	in.RangePhiWindow(0, in.nTarget, fn)
}

// RangePhiWindow calls fn(x, phi) for x = from, from+1, ...,
// from+count-1 against one immutable snapshot, stopping early if fn
// returns false — the iterator behind the paginated dense endpoint.
// The caller validates the window against NTarget. Unlike RangePhi's
// full sweep, a window answers each element by rank search (O(log k)),
// so a narrow page of a million-node instance costs the page, not the
// instance.
func (in *Instance) RangePhiWindow(from, count int, fn func(x, phi int) bool) {
	m := in.Mapping()
	for x := from; x < from+count; x++ {
		hx := x
		if in.psi != nil {
			hx = in.psi[x]
		}
		if !fn(x, m.Phi(hx)) {
			return
		}
	}
}

// InstanceInfo is a point-in-time snapshot of an instance.
type InstanceInfo struct {
	ID         string        `json:"id"`
	Spec       Spec          `json:"spec"`
	NTarget    int           `json:"n_target"`
	NHost      int           `json:"n_host"`
	Epoch      uint64        `json:"epoch"`
	Faults     []int         `json:"faults"`
	SparesFree int           `json:"spares_free"`
	Rejected   uint64        `json:"rejected_events"`
	RejectedBy RejectedStats `json:"rejected_by_cause"`
	Lookups    uint64        `json:"lookups"`
}

// Info returns a consistent snapshot of the instance state. The
// epoch/fault fields come from one immutable snapshot; the counters
// are read separately and may trail a concurrent writer slightly.
func (in *Instance) Info() InstanceInfo {
	s := in.snap.Load()
	rej := in.rejected.stats()
	return InstanceInfo{
		ID:         in.id,
		Spec:       in.spec,
		NTarget:    in.nTarget,
		NHost:      in.nHost,
		Epoch:      s.Epoch(),
		Faults:     s.Faults(),
		SparesFree: s.SparesFree(),
		Rejected:   rej.Total(),
		RejectedBy: rej,
		Lookups:    in.lookups.Load(),
	}
}
