package ft

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// The reconfiguration map of Section III-A is a pure function of the
// fault set, so the whole read-path state of a live network can be a
// single immutable value: Snapshot bundles the fault set, the mapping
// it induces, and an epoch counting atomic transitions. Readers hold a
// *Snapshot and index into it with no synchronization at all; writers
// derive the next snapshot with Apply and publish the pointer.

// Error categories for rejected changes, matchable with errors.Is.
// ErrBudget marks batches that would exceed the spare budget;
// ErrConflict marks faulting an already-faulty node or repairing a
// healthy one. Out-of-range nodes are plain invalid input.
var (
	ErrBudget   = errors.New("ft: fault budget exhausted")
	ErrConflict = errors.New("ft: conflicting change")
)

// Change is one element of a reconfiguration batch: a host node
// failing (Repair == false) or returning to service (Repair == true).
type Change struct {
	Node   int
	Repair bool
}

// Snapshot is the immutable state of a fault-tolerant network at one
// epoch. All methods are safe for unsynchronized concurrent use; the
// value never changes after construction.
type Snapshot struct {
	budget  int // max faults (k); <= NHost - NTarget
	epoch   uint64
	mapping Mapping
}

// NewSnapshot returns the epoch-0, zero-fault snapshot of a network
// with the given sizes and fault budget.
func NewSnapshot(nTarget, nHost, budget int) (*Snapshot, error) {
	return Restore(nTarget, nHost, budget, 0, nil)
}

// Restore reconstructs the snapshot of an arbitrary epoch directly
// from its journaled state: the epoch counter and the fault set a
// transition record carries. It is the recovery-path dual of Apply —
// because the paper's reconfiguration map is a pure function of the
// fault set, the O(k) record is enough to rebuild the entire snapshot
// bit-identically, and replaying a journal is one Restore per record
// rather than one event-by-event re-derivation. The fault set comes
// from outside the process (journal, checkpoint, replication or
// migration stream), so it gets NewMapping's full validation: any
// order accepted; out-of-range, duplicate or over-budget sets rejected.
func Restore(nTarget, nHost, budget int, epoch uint64, faults []int) (*Snapshot, error) {
	if err := checkBudget(nTarget, nHost, budget, len(faults)); err != nil {
		return nil, err
	}
	m, err := NewMapping(nTarget, nHost, faults)
	if err != nil {
		return nil, err
	}
	return &Snapshot{budget: budget, epoch: epoch, mapping: *m}, nil
}

// checkBudget is the budget half of Restore's validation: the budget
// within the spares, the fault count within the budget.
func checkBudget(nTarget, nHost, budget, numFaults int) error {
	if budget < 0 || budget > nHost-nTarget {
		return fmt.Errorf("ft: budget %d outside [0,%d]", budget, nHost-nTarget)
	}
	if numFaults > budget {
		return fmt.Errorf("%w: restoring %d faults over budget k=%d", ErrBudget, numFaults, budget)
	}
	return nil
}

// CheckRestore reports what Restore would say about a fault set that is
// already strictly ascending, and builds nothing: nil exactly when
// Restore accepts it, an error of the same category (ErrBudget or plain
// invalid input) when Restore refuses it. It is how a journal replay
// verifies every record yet constructs only each instance's last
// snapshot. Restore sorts before it checks, so a set out of order is
// outside this function's domain, and it refuses one outright — a
// descending or equal pair never passes as something Restore would have
// sorted and accepted.
func CheckRestore(nTarget, nHost, budget int, sortedFaults []int) error {
	if err := checkBudget(nTarget, nHost, budget, len(sortedFaults)); err != nil {
		return err
	}
	if nTarget < 0 {
		return fmt.Errorf("ft: invalid sizes nTarget=%d nHost=%d", nTarget, nHost)
	}
	prev := -1
	for _, v := range sortedFaults {
		if v < 0 || v >= nHost {
			return fmt.Errorf("ft: fault %d out of range [0,%d)", v, nHost)
		}
		if v <= prev {
			return fmt.Errorf("ft: fault %d not above its predecessor %d (set must be strictly ascending)", v, prev)
		}
		prev = v
	}
	return nil
}

// Apply derives the snapshot after a whole batch of changes. The batch
// is validated atomically — all-or-nothing: each change is checked
// against the evolving fault set (unknown node, double fault, repair
// of a healthy node, budget overflow) and the first invalid change
// rejects the entire batch, returning a nil snapshot and leaving the
// receiver untouched. On success the epoch advances by exactly one,
// however many changes the batch carried.
//
// Validating every change keeps the working fault slice sorted,
// distinct, in range and within budget, so it already is the next
// mapping: Apply builds Mapping{NTarget, NHost, Faults} in place, with
// no second sort or re-check. The slice is allocated once with room
// for the whole batch and published clipped — journal records, watch
// entries and Mapping().Faults all alias it, and an append through any
// of them must reallocate rather than write into shared memory.
func (s *Snapshot) Apply(batch []Change) (*Snapshot, error) {
	if len(batch) == 0 {
		return nil, errors.New("ft: empty change batch")
	}
	m := s.mapping
	faults := make([]int, len(m.Faults), len(m.Faults)+len(batch))
	copy(faults, m.Faults)
	for _, ch := range batch {
		if ch.Node < 0 || ch.Node >= m.NHost {
			return nil, fmt.Errorf("ft: node %d out of range [0,%d)", ch.Node, m.NHost)
		}
		i := sort.SearchInts(faults, ch.Node)
		present := i < len(faults) && faults[i] == ch.Node
		switch {
		case ch.Repair && !present:
			return nil, fmt.Errorf("%w: node %d is not faulty", ErrConflict, ch.Node)
		case ch.Repair:
			faults = append(faults[:i], faults[i+1:]...)
		case present:
			return nil, fmt.Errorf("%w: node %d is already faulty", ErrConflict, ch.Node)
		case len(faults) >= s.budget:
			return nil, fmt.Errorf("%w: k=%d (faults %v, faulting %d)",
				ErrBudget, s.budget, faults, ch.Node)
		default:
			faults = append(faults, 0)
			copy(faults[i+1:], faults[i:])
			faults[i] = ch.Node
		}
	}
	m.Faults = slices.Clip(faults)
	return &Snapshot{budget: s.budget, epoch: s.epoch + 1, mapping: m}, nil
}

// NTarget returns the number of target nodes.
func (s *Snapshot) NTarget() int { return s.mapping.NTarget }

// NHost returns the number of host nodes.
func (s *Snapshot) NHost() int { return s.mapping.NHost }

// Budget returns the fault budget k the snapshot enforces.
func (s *Snapshot) Budget() int { return s.budget }

// Epoch returns the number of atomic transitions since the zero-fault
// snapshot. A batch of any size advances it by exactly one.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumFaults returns the current fault count.
func (s *Snapshot) NumFaults() int { return len(s.mapping.Faults) }

// SparesFree returns how many further faults the budget admits.
func (s *Snapshot) SparesFree() int { return s.budget - len(s.mapping.Faults) }

// Faults returns a copy of the sorted fault set.
func (s *Snapshot) Faults() []int { return slices.Clone(s.mapping.Faults) }

// Phi returns the host node hosting target node x at this epoch.
func (s *Snapshot) Phi(x int) int { return s.mapping.Phi(x) }

// Mapping returns the snapshot's reconfiguration map (immutable).
func (s *Snapshot) Mapping() *Mapping { return &s.mapping }
