package fleet

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"ftnet/internal/ft"
	"ftnet/internal/journal"
	sharding "ftnet/internal/shard"
)

// This file is checkpoint-streamed migration: the rebalance unit that
// moves one instance between daemons with a write fence only as wide
// as one O(k) record and its commit on the target. The paper makes an
// instance's entire state a pure O(k) function of its fault set, so a
// handoff ships a state, never a history: two pushes of the same
// complete-state record, and each step is one transition of the
// lifecycle in instance.go:
//
//	phase 1 (unfenced): the source mints the attempt's token and
//	  pushes the instance's checkpoint record to the new owner, which
//	  validates it, rebuilds the mapping and registers the copy
//	  arriving — through the raw door: in memory only, not journaled,
//	  refusing traffic.
//	phase 2 (fenced):   the source fences its copy (live -> fenced),
//	  takes the checkpoint record again under the same hold of the
//	  writer mutex — the state it acknowledged last — and pushes it.
//	  The target verifies that one record on receipt, journals ONE
//	  OpMigrate record carrying it, and opens the copy in that record's
//	  publish step (arriving -> live). The source then retires its copy
//	  toward the peer (fenced -> moved: from that word on its requests
//	  are the ring's to redirect) and leaves the registry with its
//	  OpDelete. If the push provably did not commit,
//	  the target's copy was retired by the abort (arriving -> gone, the
//	  raw door again) and the source unfences (fenced -> live).
//
// Between the fence and the push the source reads nothing but its own
// published snapshot: no journal, no commit log, no history — the
// window is the same work whatever the journal's length, the tail it
// keeps in memory or the write rate.
//
// Crash safety is asymmetric by construction. Target crash before the
// OpMigrate commit: its journal never mentions the instance, the stage
// evaporates, the source (fenced or not) is still authoritative and
// the migration simply failed. Source crash after the target's commit
// but before its own OpDelete: both journals hold the instance, and the
// restarted source holds, and so serves, the copy recovery rebuilt —
// which is why reconcilePins (topology.go) runs at boot:
// it probes the ring owner and retires the local copy once the owner
// confirms a committed handoff at the same or newer epoch. Until that
// probe answers, the source may serve stale reads, but writes cannot
// fork history: a lost commit ANSWER (as opposed to a crash) leaves
// the fence up until resolveHandoff settles which side owns the id,
// and the target refuses traffic until the handoff record is durable.

// migrateStats reports one completed migration.
type migrateStats struct {
	ID    string  `json:"id"`
	Peer  string  `json:"peer"`          // target member name
	Epoch uint64  `json:"epoch"`         // instance epoch at handoff
	Pause float64 `json:"pause_seconds"` // write-fence window
}

// The two timeouts of a call to another daemon.
const (
	pushTimeout  = 30 * time.Second // a migration frame: one O(k) record, but the target's commit includes an fsync
	probeTimeout = 5 * time.Second  // abort, state: an unanswered probe keeps the fence up, and a retry loop sits above it
)

// peerClient is the client for the daemon at base, every call within
// timeout: the one seam this daemon talks to another one through.
func (m *Manager) peerClient(base string, timeout time.Duration) Client {
	return Client{HTTP: &http.Client{Transport: m.peerTransport, Timeout: timeout}, Base: base}
}

// checkpointRecord is the complete-state record of one instance at snap:
// what Compact writes per instance, what a migration stages, and — as
// an OpMigrate — what its arrival journals. Manager.restore is its
// inverse.
func checkpointRecord(id string, spec Spec, snap *ft.Snapshot) journal.Record {
	return journal.Record{
		Op:     journal.OpCheckpoint,
		ID:     id,
		Spec:   journalSpec(spec),
		Epoch:  snap.Epoch(),
		Faults: snap.Faults(),
	}
}

// migrateOut hands instance id to peer (a member name from the
// installed topology) and cuts over: after it returns nil, the peer
// owns the instance, this daemon's journal records the departure, and
// requests here are redirected. Outbound migrations are serialized —
// a rebalance is a sequence of handoffs, each with its own short
// fence, not one long pause.
func (m *Manager) migrateOut(id, peer string) (migrateStats, error) {
	if m.readOnly.Load() {
		return migrateStats{}, m.errReadOnly("migrate")
	}
	t := m.topo.Load()
	if t == nil {
		return migrateStats{}, fmt.Errorf("fleet: migrate without a shard topology")
	}
	url, ok := t.peers[peer]
	if !ok {
		return migrateStats{}, fmt.Errorf("fleet: migrate to unknown peer %q", peer)
	}
	if peer == t.self {
		return migrateStats{}, fmt.Errorf("fleet: migrate %q to self", id)
	}
	push, probe := m.peerClient(url, pushTimeout), m.peerClient(url, probeTimeout)
	m.migrateMu.Lock()
	defer m.migrateMu.Unlock()
	in, ok := m.Get(id)
	if !ok {
		return migrateStats{}, errorf(ErrNotFound, "fleet: no instance %q", id)
	}

	// A fence left up by an earlier unresolved handoff is settled before
	// anything else: either that commit actually landed (finish its
	// cutover and report it) or it provably did not (lift the fence and
	// run a fresh handoff below). migrateMu means nobody else is fencing.
	in.writeMu.Lock()
	p, pendingTo := in.at(), in.peer
	in.writeMu.Unlock()
	if p == phaseFenced || p == phaseMoved {
		if pendingTo != url {
			return migrateStats{}, errorf(ErrConflict,
				"fleet: instance %q is already migrating to %s", id, pendingTo)
		}
		committed, epoch, rerr := resolveHandoff(probe, id)
		if rerr != nil {
			return migrateStats{}, errorf(ErrUnavailable,
				"fleet: %v; write fence held, re-run the migration to resolve", rerr)
		}
		if committed {
			if cerr := m.completeMigration(id, in); cerr != nil {
				return migrateStats{}, cerr
			}
			m.migrationsOut.Inc()
			return migrateStats{ID: id, Peer: peer, Epoch: epoch}, nil
		}
		in.writeMu.Lock()
		in.unfence()
		in.writeMu.Unlock()
	}

	// Phase 1: unfenced capture, under a token of this attempt's own: a
	// commit frame from an attempt the target aborted must not land on
	// the stage of a later one.
	in.writeMu.Lock()
	if err := in.refuse(); err != nil {
		in.writeMu.Unlock()
		return migrateStats{}, err
	}
	in.writeMu.Unlock()
	frame := sharding.Migration{
		ID:     id,
		Token:  rand.Uint64(),
		Record: checkpointRecord(id, in.spec, in.snap.Load()),
	}
	if err := push.stageMigration(frame); err != nil {
		// The push may have staged despite the lost answer; a leftover
		// stage refuses traffic until dropped, so clean up best-effort.
		probe.abortMigration(id)
		// %v, not %w, here and for the commit push: the peer's category is
		// about the peer's request, not about the one this daemon is serving.
		return migrateStats{}, fmt.Errorf("fleet: stage %q on %s: %v", id, peer, err)
	}

	// Phase 2: fence, ship the state, cut over. The fence window —
	// writes redirected rather than applied — is what the
	// rebalance_pause SLO tracks. A writer keeps writeMu until its
	// transition is published, so the snapshot read under the hold that
	// puts the fence up is everything this copy ever acknowledged.
	fenceStart := time.Now()
	in.writeMu.Lock()
	if err := in.fence(url); err != nil {
		in.writeMu.Unlock()
		probe.abortMigration(id) // best effort; the stage was never durable
		return migrateStats{}, err
	}
	frame.Record = checkpointRecord(id, in.spec, in.snap.Load())
	in.writeMu.Unlock()

	if perr := push.commitMigration(frame); perr != nil {
		// The commit push failed — but "failed" is ambiguous: a lost
		// response or timeout may hide a commit the target durably
		// journaled and is already serving. Lifting the fence on that
		// guess would put two live owners behind one id (the copy held
		// here, the ring there) and silently drop every write the source
		// acks after this point. resolveHandoff settles it; while it
		// cannot, the fence stays up — writes bounce with a redirect,
		// never land on a maybe-stale copy — and a re-run of the
		// migration resumes the resolution.
		err := fmt.Errorf("fleet: commit %q on %s: %v", id, peer, perr)
		committed, _, rerr := resolveHandoff(probe, id)
		if rerr != nil {
			return migrateStats{}, errorf(ErrUnavailable,
				"fleet: %v (commit push: %v); write fence held, re-run the migration to resolve", rerr, err)
		}
		if !committed {
			// Provably not handed off: the source is still the owner.
			in.writeMu.Lock()
			in.unfence()
			in.writeMu.Unlock()
			return migrateStats{}, err
		}
		// The commit landed and only its answer was lost: fall through
		// to the cutover exactly as if the push had succeeded.
	}

	// The peer owns the instance now: hand the copy off (the ring's answer
	// — the peer — takes over for routing) and journal the departure.
	if err := m.completeMigration(id, in); err != nil {
		return migrateStats{}, err
	}
	pause := time.Since(fenceStart)
	m.migratePause.Observe(pause)
	m.migrationsOut.Inc()
	return migrateStats{ID: id, Peer: peer, Epoch: frame.Record.Epoch, Pause: pause.Seconds()}, nil
}

// completeMigration retires the source copy after a committed handoff:
// retire it toward the peer it was fenced for — one word, and the
// cutover: resolve asks the ring about a moved copy, so requests
// redirect to the new owner from this instant — and leave the registry
// with the OpDelete, so a restart does not resurrect a stale replica.
// reconcilePins calls this on an unfenced copy while the daemon serves:
// that one has no peer and goes from live to gone.
func (m *Manager) completeMigration(id string, in *Instance) error {
	m.pipe.gate.RLock()
	defer m.pipe.gate.RUnlock()
	in.writeMu.Lock()
	in.retire(in.peer)
	in.writeMu.Unlock()
	return m.leave(id)
}

// rebalance migrates every displaced local instance (the ids the
// current ring assigns elsewhere) to its owner, one fenced handoff at
// a time. It returns the stats of the migrations that completed; on
// the first failure it stops and reports both.
func (m *Manager) rebalance() ([]migrateStats, error) {
	var out []migrateStats
	for _, id := range m.displaced() {
		t := m.topo.Load()
		if t == nil {
			break
		}
		st, err := m.migrateOut(id, t.ring.Owner(id))
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// stageMigration is the target half of phase 1: rebuild the pushed
// checkpoint bit-identically and hold it staged — in memory, invisible
// to the journal, refusing traffic — until the fenced state commits.
// Staging is idempotent: a source retry replaces the previous stage.
func (m *Manager) stageMigration(mig sharding.Migration) error {
	if m.readOnly.Load() {
		return m.errReadOnly("migration stage")
	}
	t := m.topo.Load()
	if t == nil {
		return fmt.Errorf("fleet: migration stage without a shard topology")
	}
	if owner := t.ring.Owner(mig.ID); owner != t.self {
		return wrongShardf(t.peers[owner], "fleet: staged instance %q belongs to shard %s", mig.ID, owner)
	}
	if mig.Record.Op != journal.OpCheckpoint {
		return fmt.Errorf("fleet: migration stage wants a checkpoint record, got %v", mig.Record.Op)
	}
	// Validation happens before the copy becomes visible at all: a forged
	// or corrupted checkpoint never registers.
	in, err := m.restore(mig.Record, phaseArriving)
	if err != nil {
		return err
	}
	in.stagedBy = mig.Token
	return m.setRaw(in, false)
}

// commitMigration is the target half of phase 2: verify the fenced
// state on receipt — the staged attempt's token, a checkpoint of the
// staged spec at an epoch the staged one has not passed, a fault set
// ft.Restore accepts — journal ONE OpMigrate record carrying it, and
// open the instance for traffic. The OpMigrate consumes a commit seq
// like any ordinary record, so this daemon's followers receive the
// arrival as a single atomic entry. A refused frame leaves the copy
// arriving at its staged snapshot, for the source's abort to retire.
func (m *Manager) commitMigration(mig sharding.Migration) (uint64, error) {
	if m.readOnly.Load() {
		return 0, m.errReadOnly("migration commit")
	}
	in, ok := m.Get(mig.ID)
	if !ok || !in.arriving() {
		return 0, errorf(ErrNotFound, "fleet: no staged migration for %q", mig.ID)
	}
	m.pipe.gate.RLock()
	defer m.pipe.gate.RUnlock()
	in.writeMu.Lock()
	defer in.writeMu.Unlock()
	// Re-check under writeMu: a successful abortMigration (which retires
	// under this same mutex) is a definitive fence — no commit may land
	// after it, or the source could resume ownership of an id this daemon
	// also serves.
	if !in.arriving() {
		return 0, errorf(ErrNotFound, "fleet: no staged migration for %q", mig.ID)
	}
	if in.stagedBy != mig.Token {
		return 0, errorf(ErrConflict,
			"fleet: migration commit for %q is not of the staged handoff attempt", mig.ID)
	}
	rec := mig.Record
	if staged := in.snap.Load().Epoch(); rec.Op != journal.OpCheckpoint || fleetSpec(rec.Spec) != in.spec || rec.Epoch < staged {
		return 0, fmt.Errorf("fleet: migration commit for %q wants a checkpoint of %+v at epoch >= %d, got %v of %+v at epoch %d",
			mig.ID, in.spec, staged, rec.Op, fleetSpec(rec.Spec), rec.Epoch)
	}
	snap, err := in.restoredSnapshot(rec.Epoch, rec.Faults)
	if err != nil {
		return 0, err
	}
	arrival := checkpointRecord(mig.ID, in.spec, snap)
	arrival.Op = journal.OpMigrate
	if _, err := m.pipe.log.Commit(arrival, func() { in.snap.Store(snap); in.open() }); err != nil {
		m.journalFailed.Add(1)
		return 0, errorf(ErrUnavailable, "fleet: commit migration arrival %s: %v", mig.ID, err)
	}
	m.migrationsIn.Inc()
	return snap.Epoch(), nil
}

// abortMigration drops a staged (never-committed) inbound instance,
// reporting whether one existed. The source calls it when phase 2
// fails; since the stage was never journaled, dropping it from memory
// is the entire rollback. The arriving test happens under writeMu — the
// mutex commitMigration verifies and journals under — so a true answer
// is a fence: the commit for this stage either already happened
// (answer false) or can never happen (answer true), never "is about
// to". resolveHandoff leans on exactly that.
func (m *Manager) abortMigration(id string) bool {
	in, ok := m.Get(id)
	if !ok {
		return false
	}
	in.writeMu.Lock()
	staged := in.arriving()
	if staged {
		in.retire("")
	}
	in.writeMu.Unlock()
	if staged {
		m.unsetRaw(id)
	}
	return staged
}

// migrationState reports this daemon's view of id for a peer resolving
// an ambiguous handoff (or auditing its displaced copies after a restart):
// "absent" (no copy in service — never arrived, aborted, deleted or cut
// over), "staged" (arrived but not committed; still refusing traffic),
// or "committed" (a journaled copy, fenced or not; epoch is its current
// epoch). The phase is read under writeMu so the answer never observes a
// commit or abort halfway through.
func (m *Manager) migrationState(id string) (string, uint64) {
	in, ok := m.Get(id)
	if !ok {
		return "absent", 0
	}
	in.writeMu.Lock()
	defer in.writeMu.Unlock()
	switch in.at() {
	case phaseArriving:
		return "staged", 0
	case phaseLive, phaseFenced:
		return "committed", in.snap.Load().Epoch()
	default:
		return "absent", 0
	}
}

// resolveHandoff decides the fate of a handoff whose commit push got no
// usable answer — the split-brain hinge. The order is what makes it
// sound: abort FIRST. A successful abort is a fence (see
// abortMigration), so aborted=true means the commit provably never
// happened and never will. Only when the abort found nothing staged do
// we probe the state: "committed" means the push landed and its answer
// was lost; "absent" means the stage evaporated (target restart) and a
// commit — which requires a stage — is impossible. Anything else, or
// any transport failure, leaves the handoff unresolved and the caller
// MUST keep the write fence up.
func resolveHandoff(probe Client, id string) (committed bool, epoch uint64, err error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 200 * time.Millisecond)
		}
		aborted, aerr := probe.abortMigration(id)
		if aerr != nil {
			lastErr = aerr
			continue
		}
		if aborted {
			return false, 0, nil
		}
		state, e, serr := probe.migrationState(id)
		if serr != nil {
			lastErr = serr
			continue
		}
		switch state {
		case "committed":
			return true, e, nil
		case "absent":
			return false, 0, nil
		default:
			// Still staged after an abort that dropped nothing: the
			// commit handler is mid-flight between our two calls. Loop.
			lastErr = fmt.Errorf("handoff %q still staged on target", id)
		}
	}
	return false, 0, fmt.Errorf("fleet: handoff of %q unresolved: %v", id, lastErr)
}
