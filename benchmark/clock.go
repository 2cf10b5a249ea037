package main

import "time"

// clock watches how fast the processor runs. The host this was written
// on switches, for anything from a tenth of a second to half a minute,
// into a state in which every instruction stream runs 27 % faster, a
// fifth of the time in all. A run that happens to sit in such a stretch
// reads a quarter better on every metric, which is the whole of the
// widest bound a metric may have. So a run probes the clock around
// everything it times, with a fixed chain of dependent multiplications
// that takes about a millisecond, and takes its figures only from what
// it timed at the base clock: the speed of the slowest fifth of its
// probes. Nothing is rescaled; measurements are kept or left out. A run
// that sees less than a fifth of its probes at the base clock cannot
// tell, and reports what it saw.
type clock struct {
	probes []float64
}

var clockSink uint64

// probe times the chain, in nanoseconds, and remembers the result.
func (c *clock) probe() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<20; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	ns := float64(time.Since(start).Nanoseconds())
	clockSink += x
	c.probes = append(c.probes, ns)
	return ns
}

// floor returns the shortest probe time that still counts as the base
// clock. The base clock itself is taken to be the 80th percentile of the
// probes, which is a base-clock probe whenever at least a fifth of them
// are and lies below the few probes that were interrupted; the fast state
// reads 0.79 of it, and the floor is 0.9.
func (c *clock) floor() float64 { return 0.9 * quantile(c.probes, 0.8) }

// atBase returns the items whose probe ran at the base clock, or all of
// them when fewer than atLeast did.
func atBase[T any](c *clock, items []T, atLeast int, probeOf func(T) float64) []T {
	var kept []T
	floor := c.floor()
	for _, it := range items {
		if probeOf(it) >= floor {
			kept = append(kept, it)
		}
	}
	if len(kept) < atLeast {
		return items
	}
	return kept
}

// waitForBase probes until a probe runs at the base clock or the budget
// is spent, and returns the last probe and what is left of the budget.
// It is for what cannot be cut into episodes, the journal replays at the
// end of a run, by when the run's earlier probes have settled what the
// base clock is.
func (c *clock) waitForBase(budget time.Duration) (probe float64, left time.Duration) {
	const pause = 100 * time.Millisecond
	for probe = c.probe(); budget > 0 && probe < c.floor(); probe = c.probe() {
		time.Sleep(pause)
		budget -= pause
	}
	return probe, budget
}
