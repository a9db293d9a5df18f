package traffic

import (
	"math"

	"sara/internal/dma"
	"sara/internal/sim"
)

// The rate-driven sources (display drain, camera fill, token buckets)
// integrate fractional bytes-per-cycle rates over time. They do it in Q32
// fixed point rather than float64 because integer accumulation is exactly
// partition-independent: folding N cycles in one step is bit-identical to
// N single-cycle steps, regardless of where the simulation kernel happens
// to break the gap. That property is what lets the idle-skipping kernel
// fast-forward over quiescent stretches without perturbing results — the
// equivalence tests compare a skipped run against a cycle-stepped one and
// demand identical statistics.
const (
	fpShift = 32
	fpOne   = uint64(1) << fpShift
	fpFrac  = fpOne - 1
)

// toFP converts a non-negative byte quantity or rate to Q32.
func toFP(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(math.Round(v * float64(fpOne)))
}

// fromFP converts a Q32 quantity back to float64 (for reporting only).
func fromFP(v uint64) float64 { return float64(v) / float64(fpOne) }

// bytesFP converts a whole-byte count to Q32.
func bytesFP(n uint32) uint64 { return uint64(n) << fpShift }

// ceilDiv returns ceil(a/b); b must be positive.
func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// bucket is the Q32 token bucket of the rate-driven sources (RateSource,
// CPUSource). It fills at rateFP per cycle, integrated lazily up to the
// funding cursor. Each source sets its own emission threshold and cap and
// runs its own emission loop.
type bucket struct {
	rateFP   uint64 // Q32 bytes/cycle
	tokensFP uint64
	funded   sim.Cycle
	// saturated records that the last tick ended with the DMA queue full:
	// a per-cycle reference run would have clamped the bucket on every
	// blocked cycle since, so the next tick must clamp retroactively
	// before funding its own cycle (see fund).
	saturated bool
}

// integrateTo accumulates tokens so that `total` single-cycle fills have
// happened since the start of the run.
func (b *bucket) integrateTo(total sim.Cycle) {
	if total <= b.funded {
		return
	}
	b.tokensFP += b.rateFP * uint64(total-b.funded)
	b.funded = total
}

// next is the NextActivity answer of a source that emits once needFP
// tokens are funded into engine e. The bound is computed in absolute
// time from the funding cursor, NOT relative to now: the kernel's
// fast-forward probe may query the hint while the bucket integration lags
// now, and a now-relative answer would push the cached wake past the true
// fill cycle (an unsound raise the active-ticker list would never
// recover from).
func (b *bucket) next(now sim.Cycle, needFP uint64, e *dma.Engine) (sim.Cycle, bool) {
	if b.tokensFP >= needFP {
		if e.PendingSpace() > 0 {
			return now, true
		}
		// Saturated: Tick only clamps the bucket, which one batched
		// clamp reproduces exactly at the next executed cycle.
		return 0, false
	}
	if b.rateFP == 0 {
		return 0, false
	}
	// A tick at cycle c funds through c+1; the threshold is reached at
	// the first c with c+1-funded >= steps.
	steps := ceilDiv(needFP-b.tokensFP, b.rateFP)
	if steps == 0 {
		steps = 1
	}
	at := b.funded + sim.Cycle(steps) - 1
	if at < now {
		at = now
	}
	return at, true
}

// fund opens the tick at cycle now: it funds the cycles through now+1.
// After a saturated tick, every un-ticked cycle since would have clamped
// the bucket at capFP in the per-cycle reference; one batched clamp after
// funding those cycles composes to the same value (min is
// affine-compatible: min(min(t+r,c)+r,c) = min(t+2r,c)).
func (b *bucket) fund(now sim.Cycle, capFP uint64) {
	if b.saturated {
		b.integrateTo(now)
		b.tokensFP = min(b.tokensFP, capFP)
		b.saturated = false
	}
	b.integrateTo(now + 1)
}

// saturate ends a tick against a full DMA queue: it stops the bucket
// accumulating unbounded debt, so the source does not flood the instant
// space frees up, by capping it at capFP.
func (b *bucket) saturate(capFP uint64) {
	b.tokensFP = min(b.tokensFP, capFP)
	b.saturated = true
}
