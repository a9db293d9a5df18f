package analysis

import (
	"sara/internal/noc"
	"sara/internal/sim"
)

// EdgeCounts accumulates one named endpoint's trace-edge events since the
// last Reset: switch-allocation grants, credit-side pops, pops that found
// the FIFO full (the backpressure releases), and stall cycles. Endpoints
// are whatever names arrive on the edges — routers, plus the "mc<ch>"
// names the SoC wiring reports controller queue releases under.
type EdgeCounts struct {
	Grants   uint64
	Credits  uint64
	FullPops uint64
	Stalls   uint64
}

// EdgeTap counts NoC grant/credit/stall events per endpoint name. It is
// the edge layer the Analyzer's per-router backpressure numbers come
// from: the Analyzer subscribes its Trace to one System through
// core.System.Probe. It is exported so tests can drive it against a bare
// router (noc.Router.SetTrace) with hand-computable traffic.
type EdgeTap struct {
	byName map[string]*EdgeCounts
}

// TapRouters returns a tap counting events for the given endpoint names;
// events for other names are ignored. The tap observes nothing until its
// Trace is installed.
func TapRouters(names ...string) *EdgeTap {
	t := &EdgeTap{byName: make(map[string]*EdgeCounts, len(names))}
	for _, n := range names {
		t.byName[n] = &EdgeCounts{}
	}
	return t
}

// Trace returns the tap's router probes: grant, credit and stall.
func (t *EdgeTap) Trace() noc.Trace {
	return noc.Trace{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			if c := t.byName[name]; c != nil {
				c.Grants++
			}
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			if c := t.byName[name]; c != nil {
				c.Credits++
				if wasFull {
					c.FullPops++
				}
			}
		},
		Stall: func(name string, now sim.Cycle, n uint64, backfill bool) {
			if c := t.byName[name]; c != nil {
				c.Stalls += n
			}
		},
	}
}

// Counts returns the live counter cell for name (nil when untapped). The
// cell is updated in place by the probes; read it only between kernel
// steps.
func (t *EdgeTap) Counts(name string) *EdgeCounts { return t.byName[name] }

// Reset zeroes every counter cell — the window boundary.
func (t *EdgeTap) Reset() {
	for _, c := range t.byName {
		*c = EdgeCounts{}
	}
}
