package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// Everything a workload sends is made here from the seed; the program
// under test sees only the generated frames.

const (
	numInstances = 256
	batchWidth   = 16 // targets in one LookupBatch frame
	burstWidth   = 4  // events in one ApplyBatch frame
	preFaults    = specK / 2
)

func instanceID(i int) string { return fmt.Sprintf("inst-%03d", i) }

// newRand gives every caller of every phase its own stream, so a
// caller's frames depend on the seed and on nothing another caller
// does.
func newRand(seed uint64, phase, caller int, writer bool) *rand.Rand {
	stream := uint64(phase)<<32 | uint64(caller)<<1
	if writer {
		stream |= 1
	}
	return rand.New(rand.NewPCG(seed, stream))
}

// genFrame draws one read frame: an instance and its targets, both
// uniform.
func genFrame(r *rand.Rand, xs []int) (inst int) {
	inst = r.IntN(numInstances)
	for j := range xs {
		xs[j] = r.IntN(nTarget)
	}
	return inst
}

// verifyStatic compares every answer of a frame with the oracle.
func verifyStatic(o oracle, xs, phis []int) bool {
	for j, x := range xs {
		if phis[j] != o.phi(x) {
			return false
		}
	}
	return true
}

// Fault patterns. The host's 16 racks are 4 adjacent nodes each. Racks
// 0-7 hold the k/2 faults every instance starts with; racks 8-15 are
// what the recurring writers fault and repair, so a recurring workload
// visits 8 + 64 fault sets in all, far fewer than the mapping cache's
// 4096 entries.
func rackNode(rack, i int) int { return 64 + rack*250 + i }

// faultSet is an instance's fault set at one epoch, small enough to
// keep one per acked burst.
type faultSet struct {
	n uint8
	f [specK]uint16
}

func packFaults(faults []int) faultSet {
	var fs faultSet
	fs.n = uint8(len(faults))
	for i, v := range faults {
		fs.f[i] = uint16(v)
	}
	return fs
}

func (fs faultSet) ints() []int {
	out := make([]int, fs.n)
	for i := range out {
		out[i] = int(fs.f[i])
	}
	return out
}

// instState is what the benchmark knows about one instance: the state
// the program must be in after the last acked burst. Only the writer
// that owns the instance in the running phase touches it.
type instState struct {
	id      string
	idBytes []byte
	epoch   uint64
	faults  []int
	rackOn  int   // the rack 8-15 a recurring writer has faulted, or -1
	roll    []int // the four nodes a unique writer has faulted, oldest first
	oracle  oracle

	// history[i] is the fault set at epoch historyBase+i, kept only by
	// workloads that read while they write.
	history     []faultSet
	historyBase uint64
}

// burst is one planned ApplyBatch frame and the state it leads to.
type burst struct {
	events [burstWidth]event
	faults []int
	rackOn int
	roll   []int
}

// plan draws the instance's next burst without changing its state.
//
// A recurring writer alternates between faulting one of racks 8-15
// whole and repairing it. A unique writer keeps the instance at its
// full budget of k faults: after a first burst of four uniform nodes,
// every burst repairs the two oldest of them and faults two fresh
// uniform nodes, so no fault set is seen twice.
func (st *instState) plan(r *rand.Rand, unique bool) burst {
	var b burst
	pre := st.faults[:preFaults]
	switch {
	case !unique && st.rackOn < 0:
		b.rackOn = 8 + r.IntN(8)
		b.faults = append(b.faults, pre...)
		for i := 0; i < burstWidth; i++ {
			b.events[i] = faultEvent(rackNode(b.rackOn, i))
			b.faults = append(b.faults, rackNode(b.rackOn, i))
		}
	case !unique:
		b.rackOn = -1
		b.faults = append(b.faults, pre...)
		for i := 0; i < burstWidth; i++ {
			b.events[i] = repairEvent(rackNode(st.rackOn, i))
		}
	case len(st.roll) == 0:
		b.rackOn = st.rackOn
		b.faults = append(b.faults, pre...)
		for i := 0; i < burstWidth; i++ {
			v := freshNode(r, b.faults, nil)
			b.events[i] = faultEvent(v)
			b.faults = append(b.faults, v)
			b.roll = append(b.roll, v)
		}
	default:
		b.rackOn = st.rackOn
		gone := st.roll[:2]
		b.roll = append(b.roll, st.roll[2:]...)
		b.faults = append(append(b.faults, pre...), b.roll...)
		b.events[0], b.events[1] = repairEvent(gone[0]), repairEvent(gone[1])
		for i := 2; i < burstWidth; i++ {
			v := freshNode(r, b.faults, gone)
			b.events[i] = faultEvent(v)
			b.faults = append(b.faults, v)
			b.roll = append(b.roll, v)
		}
	}
	return b
}

// freshNode draws a uniform host node that is in neither list.
func freshNode(r *rand.Rand, taken, alsoTaken []int) int {
	for {
		v := r.IntN(nHost)
		if !slices.Contains(taken, v) && !slices.Contains(alsoTaken, v) {
			return v
		}
	}
}

// inverse returns the burst that undoes b, repairs first so that it
// fits the budget.
func (b burst) inverse() [burstWidth]event {
	var out [burstWidth]event
	n := 0
	for _, e := range b.events {
		if e == faultEvent(e.Node) {
			out[n] = repairEvent(e.Node)
			n++
		}
	}
	for _, e := range b.events {
		if e == repairEvent(e.Node) {
			out[n] = faultEvent(e.Node)
			n++
		}
	}
	return out
}

// commit records that the program acked b at epoch.
func (st *instState) commit(b burst, epoch uint64, keepHistory bool) {
	st.epoch, st.faults, st.rackOn, st.roll = epoch, b.faults, b.rackOn, b.roll
	if keepHistory {
		st.history = append(st.history, packFaults(b.faults))
	}
}

// faultsAt returns the fault set the instance had at epoch.
func (st *instState) faultsAt(epoch uint64) ([]int, bool) {
	if epoch < st.historyBase || epoch-st.historyBase >= uint64(len(st.history)) {
		return nil, false
	}
	return st.history[epoch-st.historyBase].ints(), true
}
