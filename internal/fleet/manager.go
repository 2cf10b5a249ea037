package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/commit"
	"ftnet/internal/ft"
	"ftnet/internal/journal"
	"ftnet/internal/obs"
)

// numShards is the number of independently-locked instance maps. A
// power of two well above typical core counts keeps registry contention
// negligible next to per-instance work.
const numShards = 16

// Options configures a Manager.
type Options struct {
	// Journal, when non-nil, makes every accepted transition durable:
	// instance creates/deletes and applied event batches each append
	// one O(k) record before the state change becomes visible.
	// Manager.Recover replays such a log after a restart.
	Journal *journal.Writer
	// CommitHistory caps the commit log's in-memory catch-up tail
	// (<= 0 selects commit.DefaultHistory).
	CommitHistory int
	// Metrics, when non-nil, is the registry the manager's service
	// metrics (commit stage timings, compaction pauses, and whatever
	// the embedding layer adds) land in. Nil creates a private one, so
	// tests and benchmarks need no wiring.
	Metrics *obs.Registry
}

// Manager is the sharded registry that owns a fleet of instances behind
// one API. All methods are safe for concurrent use.
type Manager struct {
	shards [numShards]shard
	seed   maphash.Seed
	pipe   *pipeline // the shared commit pipeline; never nil

	events  atomic.Uint64  // applied events, fleet-wide
	batches atomic.Uint64  // applied atomic transitions (a single event counts one)
	lookups stripedCounter // lookups, fleet-wide (striped: it sits on the read path)

	journalFailed atomic.Uint64                // transitions refused: journal/commit error
	recovered     atomic.Pointer[RecoverStats] // last Recover result, for stats
	compactions   atomic.Uint64                // successful Compact calls

	// Write posture. A replica in read-only posture (a follower, or a
	// deposed leader) refuses Create/Delete/EventBatch with ErrReadOnly
	// — consulted per-request by every transport, so promotion flips
	// the whole surface at once without rewiring handlers; recovery and
	// replication are unaffected, as they re-commit the leader's entries
	// by construction. leaderHint, when known, is the leader's
	// advertised URL, folded into the ErrReadOnly message so clients
	// learn where to go.
	readOnly   atomic.Bool
	leaderHint atomic.Value  // string; "" or never stored: none known
	rejectedRO atomic.Uint64 // mutations refused while read-only

	// follower is the loop NewFollower registered (nil if none): Promote
	// stops it, stats report it. promoteMu makes stopping it, committing
	// the fence and opening writes one step racing callers take in turn.
	follower  atomic.Pointer[Follower]
	promoteMu sync.Mutex

	// Shard-ring state. topo is nil for unsharded deployments, and is
	// asked only about an id this daemon holds no copy of (see
	// topology.go). peerTransport carries every call this daemon makes
	// to another one (migration pushes and probes); nil is
	// http.DefaultTransport, a test serves the peer's handler in-process.
	topo          atomic.Pointer[topology]
	peerTransport http.RoundTripper
	migrateMu     sync.Mutex // serializes outbound migrations

	obs             *obs.Registry  // service metrics registry; never nil
	pauseHist       *obs.Histogram // compaction pause (commits gated) duration
	wrongShardTotal *obs.Counter   // requests redirected to the owning shard
	migrationsOut   *obs.Counter   // instances migrated away
	migrationsIn    *obs.Counter   // instances migrated in (committed)
	migratePause    *obs.Histogram // per-migration write-fence window
}

type shard struct {
	mu        sync.RWMutex
	instances map[string]*Instance
}

// NewManager returns an empty manager with its commit pipeline.
func NewManager(opts Options) *Manager {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.New()
	}
	m := &Manager{
		seed: maphash.MakeSeed(),
		pipe: &pipeline{log: commit.NewLog(commit.Config{History: opts.CommitHistory, Obs: reg})},
		obs:  reg,
		pauseHist: reg.Histogram("ftnet_compaction_pause_seconds",
			"Wall-clock time commits were gated during one checkpoint compaction."),
		wrongShardTotal: reg.Counter("ftnet_shard_wrong_shard_total",
			"Requests refused with a redirect because another daemon owns the instance."),
		migrationsOut: reg.Counter("ftnet_shard_migrations_out_total",
			"Instances migrated away from this daemon."),
		migrationsIn: reg.Counter("ftnet_shard_migrations_in_total",
			"Instances migrated onto this daemon (staged, then committed)."),
		migratePause: reg.Histogram("ftnet_shard_migration_pause_seconds",
			"Per-migration write-fence window: writes to the instance were redirected, not applied."),
	}
	for i := range m.shards {
		m.shards[i].instances = make(map[string]*Instance)
	}
	if opts.Journal != nil {
		m.SetJournal(opts.Journal)
	}
	return m
}

// SetJournal attaches (or replaces) the durability journal by wiring
// it into the commit pipeline every instance already commits through.
// NewDaemon calls it after recovery — the boot order is recover from the
// old log, truncate any torn tail, then attach the append writer — so
// it must happen before traffic is served; concurrent use with event
// application is not supported.
func (m *Manager) SetJournal(w *journal.Writer) {
	m.pipe.log.SetWriter(w)
}

// Subscribe opens a bounded, gap-free subscription to the commit
// stream starting at fromSeq (catch-up from journal/checkpoint, then
// live tail) — the primitive under GET /v1/watch and follower
// replication.
func (m *Manager) Subscribe(fromSeq uint64, buf int) (*commit.Sub, error) {
	return m.pipe.log.Subscribe(fromSeq, buf)
}

// NextSeq returns the commit sequence number the next accepted
// transition will carry.
func (m *Manager) NextSeq() uint64 { return m.pipe.log.NextSeq() }

// Close shuts the commit pipeline down: the journal is flushed,
// fsynced and closed, and every watch/replication subscriber's stream
// ends. Further transitions are refused.
func (m *Manager) Close() error { return m.pipe.log.Close() }

// key is an instance id in either form the API takes it: a string, or
// the payload subslice the binary wire plane decodes ids as. The
// generic bodies below serve both without allocating: the shard hash is
// picked by a type switch (hashing through string(id) would copy a
// []byte), and a map index on string(id) copies neither.
type key interface{ string | []byte }

func shardOf[T key](m *Manager, id T) *shard {
	var h uint64
	switch id := any(id).(type) {
	case string:
		h = maphash.String(m.seed, id)
	case []byte:
		h = maphash.Bytes(m.seed, id) // matches maphash.String
	}
	return &m.shards[h%numShards]
}

func (m *Manager) shardFor(id string) *shard { return shardOf(m, id) }

func get[T key](m *Manager, id T) (*Instance, bool) {
	s := shardOf(m, id)
	s.mu.RLock()
	in, ok := s.instances[string(id)]
	s.mu.RUnlock()
	return in, ok
}

// resolve is the prologue of every id-taking entry point: the instance
// called id, provided it is open for traffic. Possession decides: a copy
// this daemon holds and has not handed off is served whatever the ring
// says of its id, and the ring is asked only about an id with no such
// copy here — none, or one that is moved or gone. A request that races a
// cutover therefore finds the copy held, finds it moved or misses it,
// and the last two are the ring's redirect: ErrNotFound is only ever
// said about an id the ring gives this daemon.
func resolve[T key](m *Manager, id T) (*Instance, error) {
	in, ok := get(m, id)
	if !ok || in.at() >= phaseMoved {
		if err := checkOwned(m, id); err != nil {
			return nil, err
		}
	}
	if !ok {
		return nil, errorf(ErrNotFound, "fleet: no instance %q", id)
	}
	if in.arriving() {
		return nil, errArriving(id)
	}
	return in, nil
}

// errReadOnly builds the rejection for a mutation attempted in
// read-only posture, carrying the leader hint when one is known.
func (m *Manager) errReadOnly(verb string) error {
	m.rejectedRO.Add(1)
	if hint, _ := m.leaderHint.Load().(string); hint != "" {
		return errorf(ErrReadOnly, "fleet: %s refused: read-only replica (leader: %s)", verb, hint)
	}
	return errorf(ErrReadOnly, "fleet: %s refused: read-only replica", verb)
}

// Promote makes this replica the leader, and is the one way to: a manager
// that follows first stops following — no new stream is opened, the
// in-flight one is cut, ctx bounds the wait for the loop to drain — so
// nothing the old leader sends can land behind the fence; then the
// OpTermBump fence is committed (the commit plane refuses a bump that does
// not move the term forward: ErrStaleTerm) and read-only posture dropped.
// term selects the new term; 0 means current+1, or, on a manager that
// already accepts writes, nothing: of two racing promotions one commits
// the fence and the other finds it in force.
func (m *Manager) Promote(ctx context.Context, term uint64) (_ uint64, err error) {
	m.promoteMu.Lock()
	defer m.promoteMu.Unlock()
	if term == 0 && !m.readOnly.Load() {
		cur, _ := m.pipe.log.Term()
		return cur, nil
	}
	if f := m.follower.Load(); f != nil {
		defer func() { f.settle(term, err) }()
		if err := f.halt(ctx); err != nil {
			return 0, err
		}
	}
	if term == 0 {
		cur, _ := m.pipe.log.Term()
		term = cur + 1
	}
	if err := m.bumpTerm(journal.Record{Op: journal.OpTermBump, ID: journal.SeqBaseID, Term: term}); err != nil {
		return 0, err
	}
	m.readOnly.Store(false)
	m.leaderHint.Store("")
	return term, nil
}

// bumpTerm commits a leadership fence record, a promotion's own or one
// forwarded by the leader. The commit plane re-verifies the chain either
// way: a bump that does not move the term forward — a lost promotion
// race, or the signature of a stale leader's stream — fails with
// ErrStaleTerm rather than landing.
func (m *Manager) bumpTerm(rec journal.Record) error {
	m.pipe.gate.RLock()
	defer m.pipe.gate.RUnlock()
	if _, err := m.pipe.log.Commit(rec, nil); err != nil {
		if errors.Is(err, commit.ErrStaleTerm) {
			return errorf(ErrStaleTerm, "fleet: term bump to %d: %v", rec.Term, err)
		}
		m.journalFailed.Add(1)
		return errorf(ErrUnavailable, "fleet: commit term bump: %v", err)
	}
	return nil
}

// Create registers a new instance under id. The id must be non-empty
// and unused; the spec must satisfy the paper's preconditions.
func (m *Manager) Create(id string, spec Spec) (*Instance, error) {
	if m.readOnly.Load() {
		return nil, m.errReadOnly("create")
	}
	if err := checkOwned(m, id); err != nil {
		return nil, err
	}
	in, err := newInstance(id, spec, m.pipe)
	if err != nil {
		return nil, err
	}
	rec := journal.Record{Op: journal.OpCreate, ID: id, Spec: journalSpec(spec)}
	if err := m.enter(rec, in, false); err != nil {
		return nil, err
	}
	return in, nil
}

// The registry has one door each way for a change a record of this log
// announces, and a raw door for the changes none does. Nothing else
// writes a shard map.

// enter commits rec — a create or a migrate arrival — and registers in,
// the instance it describes, in the commit's publish step under the
// shard lock: no transition record can precede its instance's first
// record in the commit stream. Holding the shard lock across the
// (possibly fsynced) commit briefly stalls that shard's lookups, a
// deliberate trade: registry changes are rare control-plane operations.
// A registered id is ErrConflict, unless supersede says rec is
// authoritative (the replication applier's stream is): then the
// registered copy is stale and is retired first — before the shard
// lock, see pipeline.
func (m *Manager) enter(rec journal.Record, in *Instance, supersede bool) error {
	m.pipe.gate.RLock()
	defer m.pipe.gate.RUnlock()
	if supersede {
		// The applier is the only mutator of a follower's registry, so the
		// copy retired here is the one the publish step replaces.
		if old, ok := m.Get(in.id); ok {
			old.writeMu.Lock()
			old.retire("")
			old.writeMu.Unlock()
		}
	}
	s := m.shardFor(in.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.instances[in.id]; dup && !supersede {
		return errorf(ErrConflict, "fleet: instance %q already exists", in.id)
	}
	if _, err := m.pipe.log.Commit(rec, func() { s.instances[in.id] = in }); err != nil {
		m.journalFailed.Add(1)
		return errorf(ErrUnavailable, "fleet: commit %v %s: %v", rec.Op, in.id, err)
	}
	return nil
}

// leave commits the OpDelete of id and unregisters it in the publish
// step; if the commit fails the copy stays registered, so memory never
// gets ahead of the log. The caller holds the gate shared and has
// retired the copy already — under its writer mutex, before this takes
// the shard lock — so a write that raced it has either finished (its
// record precedes the delete record) or will be refused: no transition
// record trails its instance's delete record, and a reused id recovers
// cleanly.
func (m *Manager) leave(id string) error {
	s := m.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := journal.Record{Op: journal.OpDelete, ID: id}
	if _, err := m.pipe.log.Commit(rec, func() { delete(s.instances, id) }); err != nil {
		m.journalFailed.Add(1)
		return errorf(ErrUnavailable, "fleet: commit delete %s: %v", id, err)
	}
	return nil
}

// setRaw, unsetRaw and wipeRaw are the raw door: registry changes that
// commit nothing, because the record is already in the log (recovery),
// the log is about to be rebased onto them (a reset), or the copy is not
// this log's business yet (a staged migration and its abort).

// setRaw registers in under its id. A copy that is in service is only
// replaced when supersede allows it; an arriving one is a stage its
// source is free to send again.
func (m *Manager) setRaw(in *Instance, supersede bool) error {
	s := m.shardFor(in.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.instances[in.id]; ok && !supersede && !old.arriving() {
		return errorf(ErrConflict, "fleet: instance %q already exists", in.id)
	}
	s.instances[in.id] = in
	return nil
}

// unsetRaw unregisters id; an id that is not registered is fine.
func (m *Manager) unsetRaw(id string) {
	s := m.shardFor(id)
	s.mu.Lock()
	delete(s.instances, id)
	s.mu.Unlock()
}

// wipeRaw retires and unregisters every instance. The caller holds the
// gate exclusive, so nothing is entering meanwhile.
func (m *Manager) wipeRaw() {
	for _, id := range m.list() {
		if in, ok := m.Get(id); ok {
			in.writeMu.Lock()
			in.retire("")
			in.writeMu.Unlock()
		}
		m.unsetRaw(id)
	}
}

// journalSpec converts a fleet spec to its journal representation.
func journalSpec(spec Spec) journal.Spec {
	return journal.Spec{Kind: string(spec.Kind), M: spec.M, H: spec.H, K: spec.K}
}

// fleetSpec is journalSpec's inverse. The kind is not checked here:
// newInstance validates the spec.
func fleetSpec(spec journal.Spec) Spec {
	return Spec{Kind: Kind(spec.Kind), M: spec.M, H: spec.H, K: spec.K}
}

// Get returns the instance with the given id.
func (m *Manager) Get(id string) (*Instance, bool) { return get(m, id) }

// GetBytes is Get for an id held as a byte slice — the binary wire
// plane's path, which decodes ids as payload subslices. It performs no
// allocation.
func (m *Manager) GetBytes(id []byte) (*Instance, bool) { return get(m, id) }

// Delete removes the instance with the given id, reporting whether it
// existed. The instance is retired under its writer mutex and then
// leaves the registry with its delete record; if that commit fails the
// retirement is undone and the instance stays live. The retirement also
// settles racing deletes: the loser reports "no such instance" without
// waiting for the winner's commit. A copy that is not this daemon's to
// delete — arriving (not journaled yet: an OpDelete would be an orphan
// and race the source's commitMigration), fenced or cut over — is
// refused with what refuse says about it.
func (m *Manager) Delete(id string) (bool, error) {
	if m.readOnly.Load() {
		return false, m.errReadOnly("delete")
	}
	m.pipe.gate.RLock()
	defer m.pipe.gate.RUnlock()
	in, err := resolve(m, id)
	var undo func()
	if err == nil {
		in.writeMu.Lock()
		if err = in.refuse(); err == nil {
			undo = in.retire("")
		}
		in.writeMu.Unlock()
	}
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			err = nil // nothing here by that name, or another delete got to it first
		}
		return false, err
	}
	if err := m.leave(id); err != nil {
		in.writeMu.Lock()
		undo() // the delete did not happen
		in.writeMu.Unlock()
		return false, err
	}
	return true, nil
}

// Event routes one fault/repair event to the named instance.
func (m *Manager) Event(id string, ev Event) (EventResult, error) {
	return m.EventBatch(id, []Event{ev})
}

// EventBatch routes a whole fault burst to the named instance as one
// atomic transition: either every event applies and the epoch advances
// by exactly one, or none do.
func (m *Manager) EventBatch(id string, events []Event) (EventResult, error) {
	in, err := resolve(m, id)
	if err != nil {
		return EventResult{}, err
	}
	return m.applyBatch(in, events)
}

// EventBatchBytes is EventBatch for an id held as bytes (the wire
// plane's path).
func (m *Manager) EventBatchBytes(id []byte, events []Event) (EventResult, error) {
	in, err := resolve(m, id)
	if err != nil {
		return EventResult{}, err
	}
	return m.applyBatch(in, events)
}

// StageBatchBytes is the first half of EventBatchBytes, for callers
// that commit several bursts as one round (a wire connection's drain
// pass): the burst is routed, validated, applied and journaled, and
// joins r; CommitRound makes the whole round durable and visible. The
// result is final once CommitRound succeeds. Any error means the burst
// is not part of the round; ErrRoundBusy asks for CommitRound first,
// then the same call again.
func (m *Manager) StageBatchBytes(r *Round, id []byte, events []Event) (EventResult, error) {
	in, err := resolve(m, id)
	if err != nil {
		return EventResult{}, err
	}
	return m.stage(r, in, events)
}

// CommitRound commits r (see Round.Commit) and moves the fleet-wide
// counters: applied events and transitions count here, at completion,
// and a round whose durability wait failed counts every staged burst
// as a journal failure.
func (m *Manager) CommitRound(r *Round) error {
	n, events := r.Len(), r.events
	if err := r.Commit(); err != nil {
		m.journalFailed.Add(uint64(n))
		return err
	}
	m.events.Add(uint64(events))
	m.batches.Add(uint64(n))
	return nil
}

// applyBatch applies a burst to a resolved instance as a round of one
// — the shared tail of EventBatch and EventBatchBytes.
func (m *Manager) applyBatch(in *Instance, events []Event) (EventResult, error) {
	var one roundOfOne
	r := one.round()
	res, err := m.stage(&r, in, events) // an empty round waits: never ErrRoundBusy
	if err == nil {
		err = m.CommitRound(&r)
	}
	if err != nil {
		return EventResult{}, err
	}
	return res, nil
}

// stage stages a burst of a resolved instance in r. Instance.reject has
// filed a refused burst under its cause; what is left to count here is a
// journal failure, and a write bounced off a fenced or moved copy, which
// is a redirect. A copy deleted under the write is neither.
func (m *Manager) stage(r *Round, in *Instance, events []Event) (EventResult, error) {
	if m.readOnly.Load() {
		return EventResult{}, m.errReadOnly("event batch")
	}
	res, err := r.Stage(in, events)
	switch {
	case err == nil, err == ErrRoundBusy:
	case errors.Is(err, ErrUnavailable):
		m.journalFailed.Add(1)
	case errors.Is(err, ErrWrongShard):
		m.wrongShardTotal.Inc()
	}
	return res, err
}

// Lookup answers where target node x of the named instance runs now.
func (m *Manager) Lookup(id string, x int) (int, error) {
	in, err := resolve(m, id)
	if err != nil {
		return 0, err
	}
	phi, err := in.Lookup(x)
	if err != nil {
		return 0, err
	}
	m.lookups.Add(x)
	return phi, nil
}

// LookupEpochBytes is the wire plane's Lookup: the id arrives as a
// payload subslice, and the answer carries the epoch of the snapshot
// that produced it. Allocation-free on the happy path.
func (m *Manager) LookupEpochBytes(id []byte, x int) (int, uint64, error) {
	in, err := resolve(m, id)
	if err != nil {
		return 0, 0, err
	}
	phi, epoch, err := in.LookupEpoch(x)
	if err != nil {
		return 0, 0, err
	}
	m.lookups.Add(x)
	return phi, epoch, nil
}

// LookupBatchBytes resolves a whole vector of targets against one
// snapshot of the named instance, filling phis (len(xs)) and returning
// that snapshot's epoch. Allocation-free on the happy path.
func (m *Manager) LookupBatchBytes(id []byte, xs, phis []int) (uint64, error) {
	in, err := resolve(m, id)
	if err != nil {
		return 0, err
	}
	epoch, err := in.LookupBatch(xs, phis)
	if err != nil {
		return 0, err
	}
	if len(xs) > 0 {
		m.lookups.AddN(xs[0], len(xs))
	}
	return epoch, nil
}

// list returns the sorted ids of all registered instances.
func (m *Manager) list() []string {
	var ids []string
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for id := range s.instances {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Stats is a fleet-wide counter snapshot. Events counts individual
// applied events; Batches counts atomic transitions (a single-event
// POST is a batch of one). Rejected is the total over RejectedBy's
// causes — rejections count per transition, not per event.
type Stats struct {
	Instances  int           `json:"instances"`
	Events     uint64        `json:"events"`
	Batches    uint64        `json:"batches"`
	Rejected   uint64        `json:"rejected"`
	RejectedBy RejectedStats `json:"rejected_by_cause"`
	ReadOnly   bool          `json:"read_only"`             // current write posture
	RejectedRO uint64        `json:"rejected_read_only"`    // mutations refused while read-only
	LeaderHint string        `json:"leader_hint,omitempty"` // advertised leader URL, if known
	Shard      *ShardStats   `json:"shard,omitempty"`       // ring state, when sharded
	Lookups    uint64        `json:"lookups"`
	Journal    JournalStats  `json:"journal"`
	Commit     commit.Stats  `json:"commit"`
}

// ShardStats reports the daemon's position in the shard ring and its
// migration traffic.
type ShardStats struct {
	Self          string `json:"self"`           // this daemon's member name
	Members       int    `json:"members"`        // daemons in the ring
	Moved         int    `json:"moved"`          // copies held here that the ring assigns elsewhere
	WrongShard    uint64 `json:"wrong_shard"`    // requests redirected to their owner
	MigrationsOut uint64 `json:"migrations_out"` // instances migrated away
	MigrationsIn  uint64 `json:"migrations_in"`  // instances migrated in
}

// JournalStats reports the durability layer: the append-side counters
// of the attached writer plus the result of the boot-time recovery (if
// one ran). LastEpoch is the epoch of the most recently journaled
// transition, fleet-wide.
type JournalStats struct {
	Enabled      bool          `json:"enabled"`
	Records      uint64        `json:"records"`
	Bytes        uint64        `json:"bytes"`
	Syncs        uint64        `json:"syncs"`
	LastEpoch    uint64        `json:"last_epoch"`
	AppendFailed uint64        `json:"append_failed"`
	Recovery     *RecoverStats `json:"recovery,omitempty"`
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.instances)
		s.mu.RUnlock()
	}
	rej := m.pipe.rejected.stats()
	js := JournalStats{AppendFailed: m.journalFailed.Load(), Recovery: m.recovered.Load()}
	if jw := m.pipe.log.Writer(); jw != nil {
		ws := jw.Stats()
		js.Enabled = true
		js.Records = ws.Records
		js.Bytes = ws.Bytes
		js.Syncs = ws.Syncs
		js.LastEpoch = ws.LastEpoch
	}
	var ss *ShardStats
	if t := m.topo.Load(); t != nil {
		ss = &ShardStats{
			Self:          t.self,
			Members:       len(t.ring.Members()),
			Moved:         len(m.displaced()),
			WrongShard:    m.wrongShardTotal.Value(),
			MigrationsOut: m.migrationsOut.Value(),
			MigrationsIn:  m.migrationsIn.Value(),
		}
	}
	hint, _ := m.leaderHint.Load().(string)
	return Stats{
		Instances:  n,
		Events:     m.events.Load(),
		Batches:    m.batches.Load(),
		Rejected:   rej.Total(),
		RejectedBy: rej,
		ReadOnly:   m.readOnly.Load(),
		RejectedRO: m.rejectedRO.Load(),
		LeaderHint: hint,
		Shard:      ss,
		Lookups:    m.lookups.Load(),
		Journal:    js,
		Commit:     m.pipe.log.Stats(),
	}
}

// Metrics exposes the manager's service-metrics registry — the commit
// pipeline's stage histograms and compaction pauses live here, and the
// HTTP/follower layers register their request-latency and
// replication-lag families into the same registry so /metrics and
// /v1/stats see one coherent set.
func (m *Manager) Metrics() *obs.Registry { return m.obs }

// CompactStats reports one checkpoint compaction.
type CompactStats struct {
	Instances int     `json:"instances"` // checkpoint records written
	Seq       uint64  `json:"seq"`       // commit seq the checkpoint covers
	Seconds   float64 `json:"seconds"`   // wall-clock time (commits were gated)
}

// Compact bounds the journal's replay length: it captures the current
// state of every instance as one checkpoint record (the paper's
// reconfiguration state is a pure function of the fault set, so O(k)
// per instance is the whole truth), atomically swaps the journal file
// for [seq marker, checkpoints], and lets the suffix accrue after it.
// A restart — of this daemon or a freshly-joining follower — then
// replays checkpoint + suffix instead of the entire history. Commits
// are gated for the duration (a few records per instance), so the
// checkpoint is a consistent cut at one sequence number; lock-free
// lookups are unaffected. A crash mid-compaction leaves the old file
// in place: the swap is a single atomic rename.
func (m *Manager) Compact() (CompactStats, error) {
	start := time.Now()
	m.pipe.gate.Lock()
	defer m.pipe.gate.Unlock()
	// Gate held exclusively: no commit is in flight, every accepted
	// transition is flushed, and the shard maps cannot change under us.
	var cps []journal.Record
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for id, in := range s.instances {
			cps = append(cps, checkpointRecord(id, in.spec, in.snap.Load()))
		}
		s.mu.RUnlock()
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].ID < cps[j].ID })
	seq := m.pipe.log.LastSeq()
	if err := m.pipe.log.Install(seq, cps); err != nil {
		return CompactStats{}, err
	}
	m.compactions.Add(1)
	pause := time.Since(start)
	m.pauseHist.Observe(pause)
	return CompactStats{Instances: len(cps), Seq: seq, Seconds: pause.Seconds()}, nil
}

// errSeqGap is returned by replicateEntry when the forwarded entry's
// sequence number is ahead of the follower's next expected one — the
// leader compacted past this follower (or lost history), and the
// follower must resynchronize from a checkpoint.
var errSeqGap = errors.New("fleet: replicated entry ahead of expected sequence")

// replicateEntry applies one forwarded commit entry on a follower, in
// order: the entry's seq must be exactly the follower's next expected
// one (an entry behind it is a reconnect duplicate, skipped silently;
// one ahead is errSeqGap). Each record re-commits through the
// follower's own pipeline — journaled locally for restart, transitions
// validated and their mapping computed by ft.NewMapping — so a
// follower is a full replica whose own watch stream chains.
func (m *Manager) replicateEntry(e commit.Entry) error {
	expected := m.pipe.log.NextSeq()
	if e.Seq < expected {
		return nil // duplicate from a resumed stream
	}
	if e.Seq > expected {
		return fmt.Errorf("%w: got seq %d, expected %d", errSeqGap, e.Seq, expected)
	}
	switch rec := e.Rec; rec.Op {
	case journal.OpCreate:
		// Create's record for a forwarded one: same commit ordering, but a
		// duplicate id replaces the existing instance.
		in, err := newInstance(rec.ID, fleetSpec(rec.Spec), m.pipe)
		if err != nil {
			return err
		}
		return m.enter(journal.Record{Op: journal.OpCreate, ID: rec.ID, Spec: rec.Spec}, in, true)
	case journal.OpMigrate:
		// The instance arrived on the leader with the carried state: the
		// follower rebuilds it from scratch, fault-set validation included.
		in, err := m.restore(rec, phaseLive)
		if err != nil {
			return err
		}
		return m.enter(rec, in, true)
	case journal.OpDelete:
		return m.replicateDelete(rec.ID)
	case journal.OpTransition:
		in, ok := m.Get(rec.ID)
		if !ok {
			return errorf(ErrNotFound, "fleet: replicated transition for unknown instance %q", rec.ID)
		}
		return in.replicate(rec)
	case journal.OpTermBump:
		return m.bumpTerm(rec)
	default:
		return fmt.Errorf("fleet: cannot replicate %v record", rec.Op)
	}
}

// replicateDelete is Delete for a forwarded record: whatever copy is
// registered is retired, and a missing id is tolerated — the commit
// keeps the streams aligned either way.
func (m *Manager) replicateDelete(id string) error {
	m.pipe.gate.RLock()
	defer m.pipe.gate.RUnlock()
	if in, ok := m.Get(id); ok {
		in.writeMu.Lock()
		in.retire("")
		in.writeMu.Unlock()
	}
	return m.leave(id)
}

// restore is the one way in for a complete-state record — a checkpoint
// or a migrate arrival, which carry (spec, epoch, faults) and so are the
// instance: it builds the instance rec describes and returns it
// unregistered, in the phase its caller names. The record comes from
// outside this process, so the state goes through restoredSnapshot's
// full validation, and every caller registers what this returns only
// afterwards: a forged or corrupted record is never visible, and what it
// would have replaced is untouched.
func (m *Manager) restore(rec journal.Record, p phase) (*Instance, error) {
	in, err := newInstance(rec.ID, fleetSpec(rec.Spec), m.pipe)
	if err != nil {
		return nil, err
	}
	snap, err := in.restoredSnapshot(rec.Epoch, rec.Faults)
	if err != nil {
		return nil, err
	}
	in.snap.Store(snap)
	in.phase.Store(uint32(p))
	return in, nil
}

// checkRestore is restore without the build: what restore would say
// about rec, provided its fault set is in the canonical ascending order
// journal records hold (any other order is refused).
func checkRestore(rec journal.Record) error {
	spec := fleetSpec(rec.Spec)
	if err := checkNew(rec.ID, spec); err != nil {
		return err
	}
	nTarget, nHost := spec.Sizes()
	if err := ft.CheckRestore(nTarget, nHost, spec.K, rec.Faults); err != nil {
		return corruptStatef(rec.ID, rec.Epoch, err)
	}
	return nil
}

// resetFromCheckpoint wipes the follower's fleet and installs the
// forwarded checkpoint: every instance in cps is rebuilt (with the
// same fault-set validation) and the local commit log is
// rebased to seq via Install, truncating the local journal to
// [seq marker, checkpoint] — exactly what the leader's compacted file
// looks like. Instances absent from cps are dropped: the checkpoint is
// the complete leader state. term is the leader's term in force at the
// checkpoint; the local term chain is rebased to it. The empty group at
// (0, 0) is the follower's one reset for a local log it cannot trust:
// nothing is served, the journal is an empty [seq marker] file — which is
// what discards a deposed leader's acked-but-never-replicated suffix —
// and the leader's history, term bumps included, re-commits from seq 1
// through the ordinary chain checks, even after a crash mid-resync.
func (m *Manager) resetFromCheckpoint(seq, term uint64, cps []journal.Record) error {
	m.pipe.gate.Lock()
	defer m.pipe.gate.Unlock()
	// The whole group is verified before the first instance is dropped: a
	// group this refuses leaves the fleet, the log position and the
	// journal exactly as they were.
	ids := make(map[string]struct{}, len(cps))
	for _, rec := range cps {
		if rec.Op != journal.OpCheckpoint {
			return fmt.Errorf("fleet: reset with a %v record in the checkpoint", rec.Op)
		}
		if _, dup := ids[rec.ID]; dup {
			return errorf(ErrConflict, "fleet: reset checkpoint names instance %q twice", rec.ID)
		}
		ids[rec.ID] = struct{}{}
		if err := checkRestore(rec); err != nil {
			return fmt.Errorf("fleet: reset checkpoint %s: %w", rec.ID, err)
		}
	}
	m.wipeRaw()
	for _, rec := range cps {
		in, err := m.restore(rec, phaseLive)
		if err != nil {
			return fmt.Errorf("fleet: reset checkpoint %s: %w", rec.ID, err) // checkRestore passed it
		}
		m.setRaw(in, true)
	}
	// Adopt the leader's term BEFORE Install stamps the seq-base
	// marker, so the truncated journal replays with the checkpoint's
	// term in force — a restart right after the resync must not come
	// back up believing the old term.
	m.pipe.log.SetTerm(term, 0)
	return m.pipe.log.Install(seq, cps)
}
