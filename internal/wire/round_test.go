package wire

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/journal"
)

// The tests here drive the server's commit round over raw TCP: what
// one drain pass sees is what one Write carried, so the round's
// boundaries do not depend on scheduling (a kernel that splits the
// write splits the round, which the sync-count bounds allow for).

// failingFile is a journal file whose fsync can be made to fail.
type failingFile struct {
	*os.File
	fail atomic.Bool
}

func (f *failingFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// roundServer serves a manager journaling with fsync-always (so an ack
// means a covering fsync returned) and holding instances "i0".."i<n>"
// with budget 2, and returns a raw connection to it.
func roundServer(t *testing.T, n int) (*fleet.Manager, *failingFile, *rawFront) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "epochs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ff := &failingFile{File: f}
	mgr := fleet.NewManager(fleet.Options{Journal: journal.NewWriter(ff, journal.Options{Sync: journal.SyncAlways})})
	t.Cleanup(func() {
		mgr.Close()
		f.Close()
	})
	for i := 0; i < n; i++ {
		if _, err := mgr.Create(fmt.Sprintf("i%d", i), fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := startServer(t, mgr, ServerOptions{Metrics: mgr.Metrics()})
	return mgr, ff, dialRaw(t, addr)
}

// sendTogether writes the requests' frames with a single Write and
// returns how many bytes that was.
func (r *rawFront) sendTogether(reqs ...Request) int {
	r.t.Helper()
	var buf []byte
	for _, req := range reqs {
		mark := len(buf)
		buf = appendFrameHeader(buf)
		var err error
		if buf, err = AppendRequest(buf, req); err != nil {
			r.t.Fatal(err)
		}
		sealFrame(buf, mark)
	}
	if _, err := r.nc.Write(buf); err != nil {
		r.t.Fatal(err)
	}
	return len(buf)
}

// recvBySeq reads n responses and indexes them by sequence number; it
// also returns the sequence numbers in arrival order.
func (r *rawFront) recvBySeq(n int) (map[uint64]Response, []uint64) {
	r.t.Helper()
	bySeq, order := make(map[uint64]Response, n), make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		resp := r.recv(5 * time.Second)
		if _, dup := bySeq[resp.Seq]; dup {
			r.t.Fatalf("two responses for seq %d", resp.Seq)
		}
		bySeq[resp.Seq] = resp
		order = append(order, resp.Seq)
	}
	return bySeq, order
}

func fault(nodes ...int) []fleet.Event {
	evs := make([]fleet.Event, len(nodes))
	for i, n := range nodes {
		evs[i] = fleet.Event{Kind: fleet.EventFault, Node: n}
	}
	return evs
}

// TestWireRoundSharesOneSync: eight ApplyBatch frames for eight
// instances in one write are all acked, under their own sequence
// numbers, behind one journal fsync.
func TestWireRoundSharesOneSync(t *testing.T) {
	const n = 8
	mgr, _, front := roundServer(t, n)
	before := mgr.Stats().Journal

	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Type: MsgApplyBatch, Seq: uint64(100 + i), ID: fmt.Sprintf("i%d", i), Events: fault(i + 1)}
	}
	front.sendTogether(reqs...)
	bySeq, _ := front.recvBySeq(n)
	for i := range reqs {
		resp, ok := bySeq[uint64(100+i)]
		if !ok || resp.Status != StatusOK || resp.Type != MsgApplyBatch ||
			resp.Result.Epoch != 1 || resp.Result.Applied != 1 || resp.Result.NumFaults != 1 {
			t.Fatalf("burst %d answered %+v (present %v)", i, resp, ok)
		}
		if in, _ := mgr.Get(reqs[i].ID); in.Snapshot().Epoch() != 1 || in.Snapshot().Faults()[0] != i+1 {
			t.Fatalf("%s at epoch %d faults %v after its ack", reqs[i].ID, in.Snapshot().Epoch(), in.Snapshot().Faults())
		}
	}
	after := mgr.Stats().Journal
	if after.Records != before.Records+n {
		t.Fatalf("journal grew by %d records, want %d", after.Records-before.Records, n)
	}
	if syncs := after.Syncs - before.Syncs; syncs < 1 || syncs > 2 {
		t.Fatalf("%d bursts in one write cost %d fsyncs, want 1 (2 if the kernel split the read)", n, syncs)
	}
}

// TestWireRoundReadYourWrite: a Lookup (or LookupBatch) pipelined behind
// an ApplyBatch of the same instance closes the round first, so it
// reads the write; a Lookup of another instance does not wait for it.
func TestWireRoundReadYourWrite(t *testing.T) {
	mgr, _, front := roundServer(t, 3)
	before := mgr.Stats().Journal.Syncs
	front.sendTogether(
		Request{Type: MsgApplyBatch, Seq: 1, ID: "i0", Events: fault(1)},
		Request{Type: MsgApplyBatch, Seq: 2, ID: "i1", Events: fault(2)},
		Request{Type: MsgLookup, Seq: 3, ID: "i2", X: 0},
		Request{Type: MsgLookup, Seq: 4, ID: "i1", X: 0},
		Request{Type: MsgApplyBatch, Seq: 5, ID: "i2", Events: fault(3)},
		Request{Type: MsgLookupBatch, Seq: 6, ID: "i2", Xs: []int{0, 1}},
	)
	bySeq, order := front.recvBySeq(6)
	for seq, epoch := range map[uint64]uint64{3: 0, 4: 1, 6: 1} {
		if resp := bySeq[seq]; resp.Status != StatusOK || resp.Epoch != epoch {
			t.Fatalf("lookup seq %d answered %+v, want epoch %d", seq, resp, epoch)
		}
	}
	for _, seq := range []uint64{1, 2, 5} {
		if resp := bySeq[seq]; resp.Status != StatusOK || resp.Result.Epoch != 1 {
			t.Fatalf("write seq %d answered %+v", seq, resp)
		}
	}
	// Completion order: the read of an unstaged instance overtakes the
	// open round; the read of a staged one follows its round's acks.
	if fmt.Sprint(order) != fmt.Sprint([]uint64{3, 1, 2, 4, 5, 6}) {
		t.Fatalf("responses arrived as %v, want [3 1 2 4 5 6]", order)
	}
	if syncs := mgr.Stats().Journal.Syncs - before; syncs < 2 || syncs > 3 {
		t.Fatalf("two rounds cost %d fsyncs", syncs)
	}
}

// TestWireRoundSameInstanceTwice: two bursts for one instance in one
// write are two rounds — epochs n+1 and n+2, both acked.
func TestWireRoundSameInstanceTwice(t *testing.T) {
	mgr, _, front := roundServer(t, 1)
	front.sendTogether(
		Request{Type: MsgApplyBatch, Seq: 1, ID: "i0", Events: fault(1)},
		Request{Type: MsgApplyBatch, Seq: 2, ID: "i0", Events: fault(2)},
	)
	bySeq, _ := front.recvBySeq(2)
	for seq := uint64(1); seq <= 2; seq++ {
		if resp := bySeq[seq]; resp.Status != StatusOK || resp.Result.Epoch != seq || resp.Result.NumFaults != int(seq) {
			t.Fatalf("burst %d answered %+v", seq, resp)
		}
	}
	if in, _ := mgr.Get("i0"); in.Snapshot().Epoch() != 2 {
		t.Fatalf("i0 at epoch %d, want 2", in.Snapshot().Epoch())
	}
}

// TestWireRoundRefusalInTheMiddle: a burst the budget refuses gets its
// typed status at once and is no part of the round; its neighbours
// commit together undisturbed.
func TestWireRoundRefusalInTheMiddle(t *testing.T) {
	mgr, _, front := roundServer(t, 3)
	before := mgr.Stats()
	front.sendTogether(
		Request{Type: MsgApplyBatch, Seq: 1, ID: "i0", Events: fault(1)},
		Request{Type: MsgApplyBatch, Seq: 2, ID: "i1", Events: fault(1, 2, 3)}, // budget is 2
		Request{Type: MsgApplyBatch, Seq: 3, ID: "i2", Events: fault(4, 5)},
	)
	bySeq, order := front.recvBySeq(3)
	if resp := bySeq[2]; resp.Status != StatusBudget || resp.Type != MsgApplyBatch {
		t.Fatalf("over-budget burst answered %+v, want StatusBudget", resp)
	}
	if order[0] != 2 {
		t.Fatalf("responses arrived as %v: the refusal should not wait for the round", order)
	}
	if a, c := bySeq[1], bySeq[3]; a.Status != StatusOK || a.Result.Epoch != 1 ||
		c.Status != StatusOK || c.Result.Epoch != 1 || c.Result.NumFaults != 2 {
		t.Fatalf("neighbours answered %+v and %+v", a, c)
	}
	if in, _ := mgr.Get("i1"); in.Snapshot().Epoch() != 0 {
		t.Fatalf("refused burst moved i1 to epoch %d", in.Snapshot().Epoch())
	}
	after := mgr.Stats()
	if after.Batches != before.Batches+2 || after.Events != before.Events+3 || after.RejectedBy.Budget != before.RejectedBy.Budget+1 {
		t.Fatalf("counters %+v -> %+v", before, after)
	}
	if syncs := after.Journal.Syncs - before.Journal.Syncs; syncs < 1 || syncs > 2 {
		t.Fatalf("the round around a refusal cost %d fsyncs, want 1", syncs)
	}
}

// TestWireRoundDurabilityFailure: when the round's fsync fails, every
// staged burst answers StatusUnavailable, none is applied, and each
// counts as a journal failure.
func TestWireRoundDurabilityFailure(t *testing.T) {
	mgr, ff, front := roundServer(t, 3)
	before := mgr.Stats()
	ff.fail.Store(true)
	front.sendTogether(
		Request{Type: MsgApplyBatch, Seq: 1, ID: "i0", Events: fault(1)},
		Request{Type: MsgApplyBatch, Seq: 2, ID: "i1", Events: fault(1)},
		Request{Type: MsgApplyBatch, Seq: 3, ID: "i2", Events: fault(1)},
		Request{Type: MsgLookup, Seq: 4, ID: "i0", X: 0},
	)
	bySeq, _ := front.recvBySeq(4)
	for seq := uint64(1); seq <= 3; seq++ {
		if resp := bySeq[seq]; resp.Status != StatusUnavailable || resp.Type != MsgApplyBatch {
			t.Fatalf("burst %d of a failed round answered %+v, want StatusUnavailable", seq, resp)
		}
	}
	if resp := bySeq[4]; resp.Status != StatusOK || resp.Epoch != 0 {
		t.Fatalf("lookup after the failed round answered %+v, want epoch 0", resp)
	}
	after := mgr.Stats()
	if after.Journal.AppendFailed != before.Journal.AppendFailed+3 || after.Batches != before.Batches {
		t.Fatalf("counters %+v -> %+v", before, after)
	}
}

// TestWireRoundCap: more bursts than fleet.RoundCap in one write are
// all acked; no round exceeds the cap, so the write costs at least two
// fsyncs and far fewer than one per burst.
func TestWireRoundCap(t *testing.T) {
	const n = fleet.RoundCap + 16
	mgr, _, front := roundServer(t, n)
	before := mgr.Stats().Journal.Syncs
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Type: MsgApplyBatch, Seq: uint64(i + 1), ID: fmt.Sprintf("i%d", i), Events: fault(1)}
	}
	front.sendTogether(reqs...)
	bySeq, _ := front.recvBySeq(n)
	for seq := uint64(1); seq <= n; seq++ {
		if resp := bySeq[seq]; resp.Status != StatusOK || resp.Result.Epoch != 1 {
			t.Fatalf("burst %d answered %+v", seq, resp)
		}
	}
	if syncs := mgr.Stats().Journal.Syncs - before; syncs < 2 || syncs > 8 {
		t.Fatalf("%d bursts in one write cost %d fsyncs, want 2 (a few more if the kernel split the read)", n, syncs)
	}
}

// TestWireOpHistogramIsPassResidence: one write of 8 LookupBatch and 4
// ApplyBatch frames is one drain pass, and the server records it once:
// 8 lookup_batch and 4 apply_batch samples, 12 requests and the bytes
// sent. Each sample is the frame's residence in the pass, so the
// lookups, handled before the pass's commit, are timed to their
// answers' one write, after it: no shorter than the commit's fsync
// wait.
func TestWireOpHistogramIsPassResidence(t *testing.T) {
	const n = 4
	mgr, _, front := roundServer(t, n)
	reg := mgr.Metrics()
	op := reg.HistogramVec("ftnet_rpc_op_seconds", "", "op")
	lookupHist, applyHist := op.With("lookup_batch"), op.With("apply_batch")
	fsync := reg.Histogram("ftnet_commit_fsync_wait_seconds", "")
	requests := reg.Counter("ftnet_rpc_requests_total", "")
	bytesIn := reg.Counter("ftnet_rpc_bytes_in_total", "")
	lookups0, applies0, fsync0 := lookupHist.Snapshot(), applyHist.Snapshot(), fsync.Snapshot()
	requests0, bytes0 := requests.Value(), bytesIn.Value()

	var reqs []Request
	for i := 0; i < 2*n; i++ {
		reqs = append(reqs, Request{Type: MsgLookupBatch, Seq: uint64(100 + i), ID: fmt.Sprintf("i%d", i%n), Xs: []int{0, 5, 9}})
	}
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{Type: MsgApplyBatch, Seq: uint64(200 + i), ID: fmt.Sprintf("i%d", i), Events: fault(i + 1)})
	}
	sent := front.sendTogether(reqs...)
	bySeq, _ := front.recvBySeq(len(reqs))
	for _, req := range reqs {
		if resp := bySeq[req.Seq]; resp.Status != StatusOK || resp.Type != req.Type {
			t.Fatalf("seq %d answered %+v", req.Seq, resp)
		}
	}

	l, a, f := lookupHist.Snapshot(), applyHist.Snapshot(), fsync.Snapshot()
	if f.Count-fsync0.Count != 1 {
		t.Fatalf("the write cost %d commits, want 1: the kernel split it", f.Count-fsync0.Count)
	}
	if got := l.Count - lookups0.Count; got != 2*n {
		t.Errorf("lookup_batch gained %d samples, want %d", got, 2*n)
	}
	if got := a.Count - applies0.Count; got != n {
		t.Errorf("apply_batch gained %d samples, want %d", got, n)
	}
	if got := requests.Value() - requests0; got != uint64(len(reqs)) {
		t.Errorf("requests_total gained %d, want %d", got, len(reqs))
	}
	if got := bytesIn.Value() - bytes0; got != uint64(sent) {
		t.Errorf("bytes_in_total gained %d, want the %d sent", got, sent)
	}
	// The pass's lookupHist share one sample, so their mean is it.
	residence, wait := (l.Sum-lookups0.Sum)/(2*n), f.Sum-fsync0.Sum
	if residence < wait {
		t.Errorf("a lookup's sample is %v, below the fsync wait %v its answer sat out", time.Duration(residence), time.Duration(wait))
	}
}
