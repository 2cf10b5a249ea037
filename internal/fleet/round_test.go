package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/commit"
	"ftnet/internal/journal"
)

// syncFile is a journal file whose fsync can be made to fail.
type syncFile struct {
	*os.File
	fail atomic.Bool
}

func (f *syncFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// roundManager returns a manager journaling with fsync-always into a
// file whose fsync the test can fail, holding n instances "i0".."i<n>".
func roundManager(t *testing.T, n int) (*Manager, *syncFile, [][]byte) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "epochs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sf := &syncFile{File: f}
	m := NewManager(Options{Journal: journal.NewWriter(sf, journal.Options{Sync: journal.SyncAlways})})
	t.Cleanup(func() {
		m.Close()
		f.Close()
	})
	ids := make([][]byte, n)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("i%d", i))
		if _, err := m.Create(string(ids[i]), Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}); err != nil {
			t.Fatal(err)
		}
	}
	return m, sf, ids
}

func epochOf(t *testing.T, m *Manager, id []byte) uint64 {
	t.Helper()
	_, epoch, err := m.LookupEpochBytes(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

// TestRoundCommitsTogether pins the round's contract at the manager: N
// staged bursts cost one fsync, and until CommitRound no reader,
// subscriber or counter sees any of them; afterwards all do, in stage
// order. The same instance twice, or a full round, is ErrRoundBusy.
func TestRoundCommitsTogether(t *testing.T) {
	m, _, ids := roundManager(t, 5)
	sub, err := m.Subscribe(m.NextSeq(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	burst := []Event{{Kind: EventFault, Node: 3}, {Kind: EventFault, Node: 7}}

	var r Round
	before := m.Stats()
	for _, id := range ids[:4] {
		res, err := m.StageBatchBytes(&r, id, burst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != 1 || res.Applied != 2 || res.NumFaults != 2 {
			t.Fatalf("staged result %+v", res)
		}
	}
	if _, err := m.StageBatchBytes(&r, ids[1], []Event{{Kind: EventRepair, Node: 3}}); err != ErrRoundBusy {
		t.Fatalf("staging an instance twice in one round: %v, want ErrRoundBusy", err)
	}
	if _, err := m.StageBatchBytes(&r, ids[4], []Event{{Kind: EventRepair, Node: 3}}); !errors.Is(err, ErrConflict) {
		t.Fatalf("a refused burst inside a round: %v, want ErrConflict", err)
	}
	if !r.Has(ids[0]) || r.Has(ids[4]) || r.Len() != 4 {
		t.Fatalf("round holds %d, Has(i0)=%v Has(i4)=%v", r.Len(), r.Has(ids[0]), r.Has(ids[4]))
	}
	for _, id := range ids {
		if e := epochOf(t, m, id); e != 0 {
			t.Fatalf("%s serves epoch %d before the round committed", id, e)
		}
	}
	mid := m.Stats()
	if mid.Events != before.Events || mid.Batches != before.Batches || mid.Journal.Syncs != before.Journal.Syncs {
		t.Fatalf("counters moved at stage: %+v -> %+v", before, mid)
	}
	select {
	case e := <-sub.C:
		t.Fatalf("entry %d (%s) fanned out before the round committed", e.Seq, e.Rec.ID)
	case <-time.After(20 * time.Millisecond):
	}

	if err := m.CommitRound(&r); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if after.Journal.Syncs != before.Journal.Syncs+1 {
		t.Fatalf("round of 4 cost %d fsyncs, want 1", after.Journal.Syncs-before.Journal.Syncs)
	}
	if after.Events != before.Events+8 || after.Batches != before.Batches+4 || after.RejectedBy.Conflict != before.RejectedBy.Conflict+1 {
		t.Fatalf("counters after commit: %+v -> %+v", before, after)
	}
	for i, id := range ids[:4] {
		if e := epochOf(t, m, id); e != 1 {
			t.Fatalf("%s serves epoch %d after the round committed", id, e)
		}
		select {
		case e := <-sub.C:
			if e.Rec.ID != string(id) || e.Rec.Epoch != 1 {
				t.Fatalf("entry %d is %s epoch %d, want %s epoch 1", i, e.Rec.ID, e.Rec.Epoch, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("entry %d never fanned out", i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("round holds %d after commit", r.Len())
	}
	// The round is reusable, and the instances are unlocked.
	if _, err := m.StageBatchBytes(&r, ids[1], []Event{{Kind: EventRepair, Node: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitRound(&r); err != nil {
		t.Fatal(err)
	}
	if e := epochOf(t, m, ids[1]); e != 2 {
		t.Fatalf("i1 serves epoch %d, want 2", e)
	}
}

// TestRoundEntriesShareOneStamp: the entries of one round carry its
// first entry's commit stamp, and the round is one append sample; a
// round of one after it stamps and times its own.
func TestRoundEntriesShareOneStamp(t *testing.T) {
	m, _, ids := roundManager(t, 6)
	sub, err := m.Subscribe(m.NextSeq(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	appends := m.Metrics().Histogram("ftnet_commit_append_seconds", "")
	next := func() commit.Entry {
		t.Helper()
		select {
		case e := <-sub.C:
			return e
		case <-time.After(5 * time.Second):
			t.Fatal("no entry fanned out")
			return commit.Entry{}
		}
	}

	before := appends.Count()
	var r Round
	for _, id := range ids[:5] {
		if _, err := m.StageBatchBytes(&r, id, []Event{{Kind: EventFault, Node: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CommitRound(&r); err != nil {
		t.Fatal(err)
	}
	if got := appends.Count() - before; got != 1 {
		t.Errorf("a round of 5 added %d append samples, want 1", got)
	}
	at := next().At
	if at == 0 {
		t.Fatal("the round's first entry carries no stamp")
	}
	for i := 1; i < 5; i++ {
		if e := next(); e.At != at {
			t.Errorf("entry %d of the round carries At=%d, the round's first %d", i, e.At, at)
		}
	}

	in, _ := m.Get(string(ids[5]))
	if _, err := in.ApplyBatch([]Event{{Kind: EventFault, Node: 3}}); err != nil {
		t.Fatal(err)
	}
	if got := appends.Count() - before; got != 2 {
		t.Errorf("a round of one after it: %d append samples in all, want 2", got)
	}
	if e := next(); e.At <= at {
		t.Errorf("a round of one after it carries At=%d, not later than the round's %d", e.At, at)
	}
}

// TestRoundSyncFailure pins the failure half: when the round's fsync
// fails, every staged burst is refused as unavailable and counted as a
// journal failure, none is applied, and every instance of the round
// still serves its old epoch and is unlocked.
func TestRoundSyncFailure(t *testing.T) {
	m, sf, ids := roundManager(t, 3)
	if _, err := m.EventBatchBytes(ids[0], []Event{{Kind: EventFault, Node: 1}}); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()

	sf.fail.Store(true)
	var r Round
	for _, id := range ids {
		if _, err := m.StageBatchBytes(&r, id, []Event{{Kind: EventFault, Node: 9}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CommitRound(&r); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("CommitRound returned %v, want ErrUnavailable", err)
	}
	after := m.Stats()
	if after.Journal.AppendFailed != before.Journal.AppendFailed+3 {
		t.Fatalf("append_failed moved by %d, want 3", after.Journal.AppendFailed-before.Journal.AppendFailed)
	}
	if after.Events != before.Events || after.Batches != before.Batches {
		t.Fatalf("a failed round counted as applied: %+v -> %+v", before, after)
	}
	for i, id := range ids {
		want := uint64(0)
		if i == 0 {
			want = 1
		}
		if e := epochOf(t, m, id); e != want {
			t.Fatalf("%s serves epoch %d after a failed round, want %d", id, e, want)
		}
		in, _ := m.GetBytes(id)
		if !in.writeMu.TryLock() {
			t.Fatalf("%s left locked by a failed round", id)
		}
		in.writeMu.Unlock()
	}
	// The log is poisoned: later writes are refused, not hung.
	if _, err := m.EventBatchBytes(ids[1], []Event{{Kind: EventFault, Node: 2}}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write after a failed round: %v, want ErrUnavailable", err)
	}
}

// roundWriter stages toggles of its own node across ids, in the order
// given, as rounds — committing and re-staging on ErrRoundBusy the way
// a wire connection does — until it has run the given number of rounds
// or stop closes, and returns the epochs it was acked per instance. It
// stops writing an instance once that is redirected or deleted.
func roundWriter(m *Manager, ids [][]byte, node, rounds int, stop <-chan struct{}) (map[string][]uint64, error) {
	acked := make(map[string][]uint64)
	faulty := make(map[string]bool)
	gone := make(map[string]bool)
	var (
		r      Round
		staged []string
		epochs []uint64
	)
	commit := func() error {
		if err := m.CommitRound(&r); err != nil {
			return err
		}
		for i, id := range staged {
			acked[id] = append(acked[id], epochs[i])
			faulty[id] = !faulty[id]
		}
		staged, epochs = staged[:0], epochs[:0]
		return nil
	}
	for i := 0; i < rounds; i++ {
		select {
		case <-stop:
			return acked, nil
		default:
		}
		for _, id := range ids {
			if gone[string(id)] {
				continue
			}
			ev := []Event{{Kind: EventFault, Node: node}}
			if faulty[string(id)] {
				ev[0].Kind = EventRepair
			}
			res, err := m.StageBatchBytes(&r, id, ev)
			if err == ErrRoundBusy {
				if err := commit(); err != nil {
					return nil, err
				}
				res, err = m.StageBatchBytes(&r, id, ev)
			}
			switch {
			case err == nil:
				staged, epochs = append(staged, string(id)), append(epochs, res.Epoch)
			case errors.Is(err, ErrWrongShard), errors.Is(err, ErrNotFound):
				gone[string(id)] = true
			default:
				return nil, fmt.Errorf("stage %s: %w", id, err)
			}
		}
		if err := commit(); err != nil {
			return nil, err
		}
	}
	return acked, nil
}

// mergedEpochs checks that the epochs several writers were acked for
// one instance are exactly 1..n, each once, and returns n.
func mergedEpochs(t *testing.T, id string, perWriter ...map[string][]uint64) uint64 {
	t.Helper()
	var all []uint64
	for _, acked := range perWriter {
		all = append(all, acked[id]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, e := range all {
		if e != uint64(i+1) {
			t.Fatalf("%s: acked epochs have a gap or a repeat at %d: ...%v", id, i, all[max(0, i-2):min(len(all), i+3)])
		}
	}
	return uint64(len(all))
}

// TestRoundsOpposedOrdersNoDeadlock runs two writers that stage the
// same two instances in opposite orders, ten thousand rounds each: the
// first-lock-waits, later-locks-try rule means they finish, and the
// epochs they were acked are gap-free.
func TestRoundsOpposedOrdersNoDeadlock(t *testing.T) {
	m := NewManager(Options{})
	ids := [][]byte{[]byte("a"), []byte("b")}
	for _, id := range ids {
		if _, err := m.Create(string(id), Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 10_000
	orders := [2][][]byte{{ids[0], ids[1]}, {ids[1], ids[0]}}
	var (
		wg    sync.WaitGroup
		acked [2]map[string][]uint64
	)
	for g := range orders {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			if acked[g], err = roundWriter(m, orders[g], g+1, rounds, nil); err != nil {
				t.Error(err)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("opposed rounds deadlocked")
	}
	if t.Failed() {
		return
	}
	for _, id := range ids {
		if n := mergedEpochs(t, string(id), acked[0], acked[1]); n != 2*rounds || epochOf(t, m, id) != n {
			t.Fatalf("%s: %d acked writes, epoch %d, want %d", id, n, epochOf(t, m, id), 2*rounds)
		}
	}
}

// TestRoundsUnderCompactAndMigrate storms a journaled daemon with
// overlapping rounds while it compacts repeatedly, deletes one instance
// and migrates another away: everything completes (the exclusive gate,
// the tombstone and the fence each wait for at most one bounded round)
// and the end-to-end invariants hold — acked epochs gap-free, every
// instance on its owner at exactly its acked epoch, and the journal
// replaying to the live fleet.
func TestRoundsUnderCompactAndMigrate(t *testing.T) {
	p := newShardPair(t)
	moving, doomed := idOwnedBy(t, "b"), "doomed"
	ids := [][]byte{[]byte(moving), []byte(doomed)}
	for i := 0; len(ids) < 8; i++ {
		if id := fmt.Sprintf("stay-%d", i); id != moving {
			ids = append(ids, []byte(id))
		}
	}
	for _, id := range ids {
		if _, err := p.a.Create(string(id), Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}); err != nil {
			t.Fatal(err)
		}
	}
	p.installTopology(t) // pins every displaced id to a until it migrates

	const writers = 3
	var (
		wg    sync.WaitGroup
		acked [writers]map[string][]uint64
	)
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each writer walks the instances from its own starting point,
			// so rounds overlap and contend.
			order := append(append([][]byte(nil), ids[g*2:]...), ids[:g*2]...)
			var err error
			if acked[g], err = roundWriter(p.a, order, g+1, 1<<30, stop); err != nil {
				t.Error(err)
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, err := p.a.Compact(); err != nil {
			t.Errorf("compact %d under rounds: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	if ok, err := p.a.Delete(doomed); !ok || err != nil {
		t.Errorf("delete under rounds: %v, %v", ok, err)
	}
	if _, err := p.a.migrateOut(moving, "b"); err != nil {
		t.Errorf("migrate under rounds: %v", err)
	}
	if _, err := p.a.Compact(); err != nil {
		t.Errorf("compact after migrate: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, id := range ids {
		n := mergedEpochs(t, string(id), acked[0], acked[1], acked[2])
		if n == 0 {
			t.Fatalf("%s: no write was acked", id)
		}
		owner := p.a
		if string(id) == moving {
			owner = p.b
		}
		in, ok := owner.Get(string(id))
		if string(id) == doomed {
			if ok {
				t.Fatalf("%s survived its delete", id)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s missing on its owner", id)
		}
		if e := in.Snapshot().Epoch(); e != n {
			t.Fatalf("%s: epoch %d on its owner, %d writes acked (lost or doubled)", id, e, n)
		}
	}
	if _, still := p.a.Get(moving); still {
		t.Fatalf("%s still registered on its old owner", moving)
	}
	checkFleet(t, recoverInto(t, journalImage(t, p.a)), stateOf(t, p.a))
}

// TestDeleteWaitsForRoundOutsideShardLock pins the lock order the round
// depends on: a Delete of an instance staged in an open round waits for
// the round — but not under the shard lock, because the round's owner
// goes through that same shard to resolve its next instance. (With the
// tombstone taken under the shard lock, as it used to be, this test
// deadlocks.)
func TestDeleteWaitsForRoundOutsideShardLock(t *testing.T) {
	checkRetireWaitsForRoundOutsideShardLock(t, func(m *Manager, id string, _ *Instance) error {
		ok, err := m.Delete(id)
		if err == nil && !ok {
			err = errors.New("delete found no instance")
		}
		return err
	})
}

// TestReconcileRetireWaitsForRoundOutsideShardLock is the same order
// for the other way an instance leaves a serving daemon:
// completeMigration, which reconcilePins runs on an unfenced, writable
// instance while commit rounds are open.
func TestReconcileRetireWaitsForRoundOutsideShardLock(t *testing.T) {
	checkRetireWaitsForRoundOutsideShardLock(t, func(m *Manager, id string, in *Instance) error {
		return m.completeMigration(id, in)
	})
}

// TestDoorEnterSupersedeWaitsForRoundOutsideShardLock is that order
// for the way a copy is replaced rather than removed: a follower's
// applier handed a create or a migrate arrival for an id it already
// holds retires the stale copy in enter, before enter locks the shard.
func TestDoorEnterSupersedeWaitsForRoundOutsideShardLock(t *testing.T) {
	for _, op := range []journal.Op{journal.OpCreate, journal.OpMigrate} {
		t.Run(op.String(), func(t *testing.T) {
			m := checkRetireWaitsForRoundOutsideShardLock(t, func(m *Manager, id string, _ *Instance) error {
				rec := journal.Record{Op: op, ID: id, Spec: journalSpec(roundLockSpec), Epoch: 6, Faults: []int{2}}
				return m.replicateEntry(commit.Entry{Seq: m.NextSeq(), Rec: rec})
			})
			want := uint64(0)
			if op == journal.OpMigrate {
				want = 6
			}
			if e := epochOf(t, m, []byte("x")); e != want {
				t.Fatalf("the copy that superseded x is at epoch %d, want %d", e, want)
			}
		})
	}
}

var roundLockSpec = Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}

// checkRetireWaitsForRoundOutsideShardLock stages x in an open round,
// starts retire(x), then has the round resolve a second instance of
// x's shard and commit: both must finish, and the copy of x the round
// wrote to must be out of the registry.
func checkRetireWaitsForRoundOutsideShardLock(t *testing.T, retire func(m *Manager, id string, in *Instance) error) *Manager {
	m := NewManager(Options{})
	spec := roundLockSpec
	const x = "x"
	inX, err := m.Create(x, spec)
	if err != nil {
		t.Fatal(err)
	}
	var y string // a second instance in x's shard
	for i := 0; y == ""; i++ {
		if id := fmt.Sprintf("y%d", i); m.shardFor(id) == m.shardFor(x) {
			y = id
		}
	}
	if _, err := m.Create(y, spec); err != nil {
		t.Fatal(err)
	}

	var r Round
	if _, err := m.StageBatchBytes(&r, []byte(x), []Event{{Kind: EventFault, Node: 1}}); err != nil {
		t.Fatal(err)
	}
	retired := make(chan error, 1)
	go func() { retired <- retire(m, x, inX) }()
	time.Sleep(20 * time.Millisecond) // let the retirement reach x's writer mutex
	staged := make(chan error, 1)
	go func() {
		_, err := m.StageBatchBytes(&r, []byte(y), []Event{{Kind: EventFault, Node: 1}})
		if err == nil {
			err = m.CommitRound(&r)
		}
		staged <- err
	}()
	for _, c := range []chan error{staged, retired} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an open round and the retirement of its staged instance deadlocked")
		}
	}
	if cur, ok := m.Get(x); ok && cur == inX {
		t.Fatal("x survived its retirement")
	}
	if inX.at() != phaseGone {
		t.Fatalf("the retired copy of x is in phase %d, want gone", inX.at())
	}
	if e := epochOf(t, m, []byte(y)); e != 1 {
		t.Fatalf("y at epoch %d, want 1", e)
	}
	return m
}
