// Package adapt implements the priority-based self-adaptation of Sections
// 3.2 and 3.4: the translation of a DMA's NPI value into a relative
// priority level through a small look-up table, hardware-style — one
// register per priority level holding the lowest NPI admitted at that
// level, parallel comparators, lowest asserted level wins.
package adapt

import (
	"fmt"
	"math"

	"sara/internal/meter"
	"sara/internal/sim"
	"sara/internal/stats"
	"sara/internal/txn"
)

// LUT is the NPI-to-priority mapping table. Bounds[p] stores the lowest
// NPI value allowed at priority level p; bounds must be strictly
// decreasing so that exactly the levels p..max are asserted for a given
// NPI, and the lowest asserted level (the least urgent) is adopted.
type LUT struct {
	bounds []float64
}

// NewLUT builds a table from the given bounds. It panics if bounds is
// empty or not strictly decreasing, mirroring the design-time check a
// hardware generator would perform.
func NewLUT(bounds []float64) LUT {
	if len(bounds) == 0 {
		panic("adapt: empty LUT")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] >= bounds[i-1] {
			panic(fmt.Sprintf("adapt: LUT bounds not strictly decreasing at %d: %v", i, bounds))
		}
	}
	cp := append([]float64(nil), bounds...)
	// The highest priority level admits any NPI, so the backlog level's
	// bound is effectively -inf regardless of the configured value.
	cp[len(cp)-1] = math.Inf(-1)
	return LUT{bounds: cp}
}

// DefaultLUT returns the evaluation mapping for k priority bits (2^k
// levels). For k = 3 the bounds are tuned so that a core comfortably above
// target sits at level 0 and a core below half its target saturates at 7,
// matching the adaptation examples of Fig. 4.
func DefaultLUT(bits int) LUT {
	n := 1 << bits
	switch n {
	case 2:
		return NewLUT([]float64{1.0, 0})
	case 4:
		return NewLUT([]float64{1.2, 1.0, 0.7, 0})
	case 8:
		return NewLUT([]float64{1.5, 1.25, 1.1, 1.0, 0.85, 0.7, 0.5, 0})
	case 16:
		return NewLUT([]float64{2.0, 1.7, 1.5, 1.35, 1.25, 1.15, 1.05, 1.0,
			0.92, 0.85, 0.77, 0.7, 0.6, 0.5, 0.35, 0})
	default:
		// Generic geometric spacing between 1.5 and 0.5 around 1.0.
		bounds := make([]float64, n)
		for i := 0; i < n; i++ {
			bounds[i] = 1.5 * math.Pow(0.87, float64(i)*8/float64(n))
		}
		bounds[n-1] = 0
		return NewLUT(bounds)
	}
}

// Levels reports the number of priority levels in the table.
func (l LUT) Levels() int { return len(l.bounds) }

// Bound reports the lowest NPI admitted at level p.
func (l LUT) Bound(p int) float64 { return l.bounds[p] }

// Map translates an NPI value into a priority level: every level whose
// bound is <= npi is asserted, and the lowest asserted level wins (§3.4).
func (l LUT) Map(npi float64) txn.Priority {
	for p, bound := range l.bounds {
		if npi >= bound {
			return txn.Priority(p)
		}
	}
	// Unreachable: the last bound is -inf.
	return txn.Priority(len(l.bounds) - 1)
}

// PrioritySetter receives the adapted priority (implemented by the DMA).
type PrioritySetter interface {
	SetPriority(p txn.Priority)
}

// Adapter periodically re-evaluates one DMA's meter and adjusts the
// priority stamped on its future transactions. It also accumulates the
// time-at-level histogram that Fig. 7 reports.
//
// Adapters ride the kernel's event heap (a periodic sim.Kernel.Every
// schedule), not the wake wheel: they are not Idlers, need no WakeHandle,
// and a priority change never moves any component's next-activity cycle
// — it only reorders arbitration among already-scheduled work — so the
// push-based wake contract does not apply to them.
type Adapter struct {
	Name  string
	meter meter.Meter
	lut   LUT
	dma   PrioritySetter

	interval sim.Cycle
	current  txn.Priority
	hist     *stats.LevelHistogram
	enabled  bool
}

// New builds an adapter that maps m through lut into dst every interval
// cycles. Call Tick from a periodic event (the SoC layer wires this).
func New(name string, m meter.Meter, lut LUT, dst PrioritySetter, interval sim.Cycle) *Adapter {
	if interval == 0 {
		panic("adapt: zero adaptation interval")
	}
	return &Adapter{
		Name:     name,
		meter:    m,
		lut:      lut,
		dma:      dst,
		interval: interval,
		hist:     stats.NewLevelHistogram(lut.Levels()),
		enabled:  true,
	}
}

// SetEnabled turns adaptation on or off; when off the DMA keeps priority 0
// (used by the non-SARA baseline policies).
func (a *Adapter) SetEnabled(on bool) {
	a.enabled = on
	if !on {
		a.current = 0
		a.dma.SetPriority(0)
	}
}

// Interval reports the adaptation period in cycles.
func (a *Adapter) Interval() sim.Cycle { return a.interval }

// Current reports the most recently adopted priority level.
func (a *Adapter) Current() txn.Priority { return a.current }

// Histogram returns the time-at-level histogram.
func (a *Adapter) Histogram() *stats.LevelHistogram { return a.hist }

// Tick performs one adaptation step at cycle now.
func (a *Adapter) Tick(now sim.Cycle) {
	if !a.enabled {
		a.hist.Add(0, uint64(a.interval))
		return
	}
	p := a.lut.Map(a.meter.NPI(now))
	a.current = p
	a.dma.SetPriority(p)
	a.hist.Add(int(p), uint64(a.interval))
}
