// Package fleet is the online reconfiguration service: it owns live
// fault-tolerant network instances, absorbs streams of fault/repair
// events, and answers "where does target node x run now?" at memory
// speed.
//
// The paper (Bruck, Cypher, Ho 1992) guarantees that after ANY <= k
// node faults the host still contains the target with dilation 1; this
// package turns that one-shot guarantee into a long-running service:
//
//   - Instance: a state machine around one fault-tolerant network. Its
//     entire read-path state is one immutable ft.Snapshot (fault set +
//     mapping + epoch) behind an atomic pointer, so Lookup is
//     lock-free — a pointer load plus an array index — and never
//     blocks event application. Writers validate Fault/Repair events
//     (singly or as atomic all-or-nothing bursts) against the spare
//     budget k and derive the next snapshot copy-on-write; the
//     monotone rank mapping of Section III-A is the sorted fault set
//     itself, so each transition builds its O(k) mapping in place.
//     There is one way to obtain a mapping, and it is to compute it.
//   - Manager: a sharded registry owning many instances, safe under
//     `go test -race`.
//
// Its exported surface is what its doors call, and no more:
//
//   - NewHTTPHandler: the JSON API (api.go, api_shard.go), whose one
//     client is Client;
//   - Plane: the binary RPC plane, a wire.Server over Manager's *Bytes
//     methods and CommitRound;
//   - Daemon: one daemon's life in order — boot (recover, fence, ring,
//     posture), loops, both planes, drain. cmd/ftnetd is its flags;
//   - the root package's facade (FleetManager and its kin) and the
//     benchmark's system under test, which call the rest of Manager.
package fleet

import (
	"errors"
	"fmt"

	"ftnet/internal/ft"
)

// Error categories, matchable with errors.Is. ErrNotFound marks
// requests naming an unknown instance; ErrConflict marks requests the
// current state rejects (duplicate id, double fault, exhausted budget).
// Everything else the package returns is plain invalid input.
var (
	ErrNotFound = errors.New("fleet: not found")
	ErrConflict = errors.New("fleet: conflict")

	// ErrInvalid is that "everything else" once it has crossed a
	// transport. In-process, invalid input (node out of range, unknown
	// kind, empty batch) is the error with no category, which is how
	// errCode and wire's statusOf recognize it; the decode side of each
	// transport (responseError, wire.Error) rebuilds it under this
	// sentinel, so a remote caller can tell the daemon refusing bad
	// input from a failure that has no category at all.
	ErrInvalid = errors.New("fleet: invalid input")

	// ErrUnavailable marks transitions refused because the durability
	// layer failed: the journal append did not complete, so the state
	// change was not applied (the snapshot pointer is only published
	// after the record is journaled). Transports map it to 503.
	ErrUnavailable = errors.New("fleet: journal unavailable")

	// ErrBudget is the ErrConflict subcategory for events rejected
	// because they would exceed the spare budget k; stats report it
	// separately from duplicate-fault/repair-healthy conflicts.
	ErrBudget error = &fleetError{category: ErrConflict, msg: "fleet: fault budget exhausted"}

	// ErrReadOnly marks mutations refused because this replica is in
	// read-only posture (a follower, or a deposed leader that demoted
	// itself). The error surfaced to clients carries the leader hint
	// when one is known; transports map it to 403 / StatusReadOnly.
	ErrReadOnly = errors.New("fleet: read-only replica")

	// ErrStaleTerm marks writes fenced off by the leadership term: a
	// term bump that does not move the term forward, or an entry from a
	// leader whose term has been superseded. Transports map it to
	// StatusStaleTerm so a deposed leader can tell "I must demote"
	// apart from ordinary conflicts.
	ErrStaleTerm = errors.New("fleet: stale leadership term")

	// ErrWrongShard marks requests naming an instance this daemon does
	// not own under the shard ring — either never owned, or fenced away
	// mid-migration. The error carries the owner's advertised URL when
	// known (WrongShardOwner extracts it); transports surface it as
	// 403 + X-Ftnet-Owner / StatusWrongShard so clients re-route
	// instead of retrying here.
	ErrWrongShard = errors.New("fleet: wrong shard")

	// ErrCorruptRecord marks state arriving from outside the process —
	// a journal, checkpoint, replicated or migrated record — refused on
	// receipt: its epoch breaks the gap-free chain, or its fault set is
	// out of range, duplicated or over budget. The instance keeps
	// serving the snapshot it had.
	ErrCorruptRecord = errors.New("fleet: corrupt record")
)

// fleetError carries a human message plus an errors.Is-matchable
// category, so transports map rejections to codes without string
// sniffing.
type fleetError struct {
	category error // ErrNotFound, ErrConflict, or nil
	msg      string
}

func (e *fleetError) Error() string { return e.msg }

func (e *fleetError) Unwrap() error { return e.category }

func errorf(category error, format string, args ...any) error {
	return &fleetError{category: category, msg: fmt.Sprintf(format, args...)}
}

// wrongShardError is ErrWrongShard plus the owning daemon's advertised
// URL, so every transport can hand the client a redirect target
// without re-deriving ring state.
type wrongShardError struct {
	owner string // the owner's advertised URL ("" when unknown)
	msg   string
}

func (e *wrongShardError) Error() string { return e.msg }

func (e *wrongShardError) Unwrap() error { return ErrWrongShard }

func wrongShardf(owner, format string, args ...any) error {
	return &wrongShardError{owner: owner, msg: fmt.Sprintf(format, args...)}
}

// WrongShardError builds an ErrWrongShard error carrying the owning
// daemon's advertised URL — the transports' decode side uses it so a
// redirect received over the wire matches errors.Is(ErrWrongShard) and
// WrongShardOwner exactly like one raised in-process.
func WrongShardError(owner, msg string) error {
	return &wrongShardError{owner: owner, msg: msg}
}

// WrongShardOwner extracts the owning daemon's advertised URL from an
// ErrWrongShard error, or "" when the error is of another category (or
// carries no hint).
func WrongShardOwner(err error) string {
	var e *wrongShardError
	if errors.As(err, &e) {
		return e.owner
	}
	return ""
}

// Kind selects the target topology of an instance.
type Kind string

// The supported topologies: the paper's two headline constructions.
const (
	KindDeBruijn Kind = "debruijn" // target B_{m,h}, host B^k_{m,h}
	KindShuffle  Kind = "shuffle"  // target SE_h, host B^k_{2,h} via psi
)

// Spec describes the fault-tolerant network an instance runs.
type Spec struct {
	Kind Kind `json:"kind"`
	M    int  `json:"m,omitempty"` // base (de Bruijn only; shuffle is base 2)
	H    int  `json:"h"`           // digits / bits
	K    int  `json:"k"`           // fault budget
}

// Validate checks the spec against the paper's preconditions.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindDeBruijn:
		return ft.Params{M: s.M, H: s.H, K: s.K}.Validate()
	case KindShuffle:
		if s.M != 0 && s.M != 2 {
			return fmt.Errorf("fleet: shuffle-exchange is base 2, got m=%d", s.M)
		}
		return ft.SEParams{H: s.H, K: s.K}.Validate()
	default:
		return fmt.Errorf("fleet: unknown kind %q (want %q or %q)",
			s.Kind, KindDeBruijn, KindShuffle)
	}
}

// Sizes returns the node counts of the target and of the host a valid
// spec induces.
func (s Spec) Sizes() (nTarget, nHost int) {
	if s.Kind == KindShuffle {
		p := ft.SEParams{H: s.H, K: s.K}
		return p.NTarget(), p.NHost()
	}
	p := ft.Params{M: s.M, H: s.H, K: s.K}
	return p.NTarget(), p.NHost()
}

// EventKind is the type of a reconfiguration event.
type EventKind string

// The two event kinds an instance consumes.
const (
	EventFault  EventKind = "fault"  // host node stops working
	EventRepair EventKind = "repair" // host node returns to service
)

// Event is one fault or repair notification for a host node.
type Event struct {
	Kind EventKind `json:"kind"`
	Node int       `json:"node"` // host node id
}

// EventResult reports the instance state after an applied event or
// batch. The epoch counts atomic transitions: a batch of any size
// advances it by exactly one.
type EventResult struct {
	Epoch     uint64 `json:"epoch"`      // atomic transitions applied so far
	NumFaults int    `json:"num_faults"` // current fault count
	Budget    int    `json:"budget"`     // the instance's k
	Applied   int    `json:"applied"`    // events in the transition (1 for single events)
}

// RejectedStats breaks rejected events down by cause: budget-exceeded
// (the daemon enforcing the paper's k-fault precondition), state
// conflicts (double fault, repair of a healthy node), and invalid
// input (unknown node or event kind, empty batch).
type RejectedStats struct {
	Budget   uint64 `json:"budget"`
	Conflict uint64 `json:"conflict"`
	Invalid  uint64 `json:"invalid"`
}

// Total returns the sum over all causes.
func (r RejectedStats) Total() uint64 { return r.Budget + r.Conflict + r.Invalid }
