package fleet

import (
	"errors"

	"ftnet/internal/commit"
	"ftnet/internal/ft"
	"ftnet/internal/journal"
)

// RoundCap is the most transitions one round carries: what bounds the
// wait of a Compact, a migration fence or another writer of a staged
// instance behind an open round.
const RoundCap = 64

// ErrRoundBusy is Stage's answer when the transition cannot join the
// open round — the instance's writer mutex is held (by another round,
// a migration fence, a delete, or this round: the same instance
// twice), or the round is full. Nothing was staged; Commit the round
// and stage again, which then waits its turn like any writer.
var ErrRoundBusy = errors.New("fleet: round must commit first")

// Round is a commit round: transitions of different instances, staged
// one after another by one goroutine, that become durable behind a
// single wait and are published together. It is the paper's shared-bus
// move applied to durability — one transfer serves every consumer —
// and every write goes through one: Instance.ApplyBatch and replicate
// are rounds of one, a wire connection keeps a Round for the frames of
// one drain pass.
//
// While a round is open it holds the compaction gate shared, once, and
// the writer mutex of every staged instance; readers, watchers and
// followers see none of the staged snapshots until Commit. Deadlock
// freedom is by construction: only the first writer mutex is waited
// for, every later one is tried, and a failed try is ErrRoundBusy — so
// a goroutine never waits for a writer mutex while it holds one. The
// owner must in turn not block on anything else (a socket, above all)
// with the round open.
//
// The zero Round is empty and ready; a Round is not safe for
// concurrent use.
type Round struct {
	ins    []*Instance      // staged instances, writeMu held, in Begin order
	pend   []commit.Pending // ins[i]'s entry
	events int              // events staged, for the manager's counters
}

// roundOfOne backs a one-transition round with its caller's stack.
type roundOfOne struct {
	ins  [1]*Instance
	pend [1]commit.Pending
}

func (o *roundOfOne) round() Round { return Round{ins: o.ins[:0], pend: o.pend[:0]} }

// Len returns the number of staged transitions.
func (r *Round) Len() int { return len(r.ins) }

// Has reports whether the instance called id has a transition staged
// in the round: a read of it would not see that write yet.
func (r *Round) Has(id []byte) bool {
	for _, in := range r.ins {
		if in.id == string(id) {
			return true
		}
	}
	return false
}

// acquire takes in's writer mutex for the round — waiting for it, gate
// first, when the round is empty, trying it otherwise — and reports
// whether it did. Pair with begin (the lock stays until Commit) or
// release.
func (r *Round) acquire(in *Instance) bool {
	if len(r.ins) == 0 {
		in.pipe.gate.RLock()
		in.writeMu.Lock()
		return true
	}
	return len(r.ins) < cap(r.ins) && in.pipe == r.ins[0].pipe && in.writeMu.TryLock()
}

// release undoes an acquire whose transition was refused.
func (r *Round) release(in *Instance) {
	in.writeMu.Unlock()
	if len(r.ins) == 0 {
		in.pipe.gate.RUnlock()
	}
}

// begin sequences rec for in, whose writer mutex the round holds, and
// stages next as the snapshot Commit will publish. The round's first
// entry is stamped by the log; every later one shares its stamp.
func (r *Round) begin(in *Instance, rec journal.Record, next *ft.Snapshot) error {
	in.next = next
	var at int64
	if len(r.pend) > 0 {
		at = r.pend[0].At
	}
	p, err := in.pipe.log.Begin(rec, in.publishNext, at)
	if err != nil {
		in.next = nil
		return errorf(ErrUnavailable, "fleet: instance %s: commit: %v", in.id, err)
	}
	// A long-lived round sizes itself on first use; a round of one
	// arrives with its capacity. Growing by reslicing, not append, is
	// what lets the latter's arrays stay on the caller's stack.
	if cap(r.ins) == 0 {
		r.ins = make([]*Instance, 0, RoundCap)
		r.pend = make([]commit.Pending, 0, RoundCap)
	}
	n := len(r.ins)
	r.ins = r.ins[:n+1]
	r.pend = r.pend[:n+1]
	r.ins[n], r.pend[n] = in, p
	return nil
}

// Commit closes the round: one durability wait for everything staged,
// then every snapshot is published, in order, and the entries fan out.
// Whatever the outcome, the round is empty afterwards and every staged
// instance unlocked. On error no transition of the round happened —
// none is durable for certain, none was published, every instance still
// serves the epoch it had — and none may be acknowledged.
func (r *Round) Commit() error {
	if len(r.ins) == 0 {
		return nil
	}
	pipe := r.ins[0].pipe // one pipeline per round; acquire saw to it
	err := pipe.log.Complete(r.pend)
	for _, in := range r.ins {
		in.next = nil
		in.writeMu.Unlock()
	}
	pipe.gate.RUnlock()
	n := len(r.ins)
	clear(r.ins)
	clear(r.pend)
	r.ins = r.ins[:0]
	r.pend = r.pend[:0]
	r.events = 0
	if err != nil {
		return errorf(ErrUnavailable, "fleet: commit round of %d: %v", n, err)
	}
	return nil
}
