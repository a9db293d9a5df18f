package traffic

import (
	"sara/internal/dma"
	"sara/internal/sim"
	"sara/internal/txn"
)

// DisplaySource models the display controller's read path: an LCD panel
// drains a read buffer at a constant rate while the DMA refills it from
// DRAM so the buffer never runs empty (Section 3.2, Eqn. 3). Health is the
// refill rate versus the panel's read rate, observable through the buffer
// occupancy level.
//
// The panel drain is integrated in Q32 fixed point keyed off the absolute
// cycle count, so the source can be ticked at any subset of cycles (the
// idle-skipping kernel exploits this) and still reproduce the cycle-by-
// cycle evolution exactly, including underrun accounting.
type DisplaySource struct {
	name    string
	engine  *dma.Engine
	reqSize uint32 // refill transaction size
	str     *stream

	drainFP    uint64 // Q32 bytes/cycle
	bufFP      uint64 // Q32 buffer capacity
	reqFP      uint64 // Q32 refill transaction size
	occFP      uint64 // Q32 current buffer fill
	carryFP    uint64 // sub-byte drain not yet taken, < 1 byte
	inflightFP uint64 // Q32 bytes of refills in flight
	drained    sim.Cycle

	// UnderrunCycles counts cycles the panel wanted data from an empty
	// buffer — each one is a visible artifact on a real panel.
	UnderrunCycles uint64
}

// NewDisplaySource builds a display refill source over region r. The
// buffer starts at the 50% initial level the paper describes.
func NewDisplaySource(name string, e *dma.Engine, r Region,
	drainPerCycle, bufBytes float64, reqSize uint32) *DisplaySource {
	s := &DisplaySource{
		name:    name,
		engine:  e,
		reqSize: reqSize,
		str:     newStream(r, reqSize),
		drainFP: toFP(drainPerCycle),
		bufFP:   toFP(bufBytes),
		reqFP:   bytesFP(reqSize),
	}
	s.occFP = s.bufFP / 2
	e.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
		s.integrateTo(now)
		sz := bytesFP(t.Size)
		s.inflightFP -= sz
		s.occFP += sz
		if s.occFP > s.bufFP {
			s.occFP = s.bufFP
		}
	})
	return s
}

// Name returns the source label.
func (s *DisplaySource) Name() string { return s.name }

// Occupancy reports the buffer fill fraction as of the last integration
// point (exact during any executed cycle, which is when the urgency probe
// and tests read it).
func (s *DisplaySource) Occupancy() float64 {
	if s.bufFP == 0 {
		return 0
	}
	return float64(s.occFP) / float64(s.bufFP)
}

// OccupancyAt reports the buffer fill fraction at cycle now, integrating
// any pending drain first. The occupancy meter uses it so that sampling
// events observe the same value whether or not the kernel skipped the
// preceding cycles.
func (s *DisplaySource) OccupancyAt(now sim.Cycle) float64 {
	s.integrateTo(now)
	return s.Occupancy()
}

// integrateTo advances the panel drain so that `total` single-cycle drain
// steps have been applied since the start of the run. It reproduces the
// per-cycle accounting exactly for any step partition.
func (s *DisplaySource) integrateTo(total sim.Cycle) {
	if total <= s.drained || s.drainFP == 0 {
		if total > s.drained {
			s.drained = total
		}
		return
	}
	n := uint64(total - s.drained)
	s.drained = total

	c0, d := s.carryFP, s.drainFP
	sum := c0 + d*n
	take := sum >> fpShift // whole bytes the panel reads over the gap
	s.carryFP = sum & fpFrac
	if take == 0 {
		return
	}
	if takeFP := take << fpShift; s.occFP >= takeFP {
		s.occFP -= takeFP
		return
	}
	// The buffer runs dry inside this gap. Cycle i (1-based) extracts
	// extr(i)-extr(i-1) bytes where extr(i) = floor((c0+i*d)/1B); the
	// first cycle whose cumulative extraction exceeds the covered whole
	// bytes q zeroes the buffer and counts an underrun, as does every
	// later cycle that extracts at least one byte.
	q := s.occFP >> fpShift
	first := ceilDiv((q+1)<<fpShift-c0, d)
	var ur uint64
	if d >= fpOne {
		ur = n - first + 1 // every cycle extracts at least one byte
	} else {
		ur = ((c0 + n*d) >> fpShift) - ((c0 + (first-1)*d) >> fpShift)
	}
	s.UnderrunCycles += ur
	s.occFP = 0
}

// NextActivity implements sim.Idler: the source acts when one more refill
// fits in the buffer, which — absent completions, which arrive as kernel
// events — happens only as the panel drains.
//
//sara:hotpath
func (s *DisplaySource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if s.occFP+s.inflightFP+s.reqFP <= s.bufFP {
		if s.engine.PendingSpace() > 0 {
			return now, true
		}
		// The DMA queue is stuffed; it drains only through executed
		// cycles (injection or completions), which re-query this hint.
		return 0, false
	}
	if s.drainFP == 0 || s.inflightFP+s.reqFP > s.bufFP {
		// Draining alone can never open enough space; only completions
		// (events) change that.
		return 0, false
	}
	// A tick at cycle c integrates the drain through c+1, so enough space
	// opens at the first c with c+1-drained >= steps. The bound is
	// anchored at the drain cursor, not now: a fast-forward probe may
	// query while the integration lags now, and a now-relative answer
	// would raise the cached wake past the true cycle (see bucket.next).
	needFP := s.occFP + s.inflightFP + s.reqFP - s.bufFP
	needBytes := ceilDiv(needFP, fpOne)
	steps := ceilDiv(needBytes<<fpShift-s.carryFP, s.drainFP)
	if steps == 0 {
		steps = 1
	}
	at := s.drained + sim.Cycle(steps) - 1
	if at < now {
		at = now
	}
	return at, true
}

// SettleRun implements sim.Settler: a run horizon can cut a dormant
// stretch short, leaving the panel drain integrated only up to the last
// tick or occupancy probe. Flushing the integration to the horizon makes
// the final UnderrunCycles exact; in the stepped reference modes the
// final tick already integrated this far, so it is a no-op.
func (s *DisplaySource) SettleRun(end sim.Cycle) { s.integrateTo(end) }

// Tick drains the panel side and issues refill reads to keep the buffer
// full, accounting for refills already in flight.
func (s *DisplaySource) Tick(now sim.Cycle) {
	s.integrateTo(now + 1)
	// The pending-space check comes first so a full DMA queue never burns
	// a stream offset on a failed enqueue — blocked cycles must leave no
	// trace, or fast-forwarding over them would not be equivalent.
	for s.occFP+s.inflightFP+s.reqFP <= s.bufFP && s.engine.PendingSpace() > 0 {
		s.engine.Enqueue(txn.Read, s.str.next(), s.reqSize)
		s.inflightFP += s.reqFP
	}
}

// CameraSource models the camera front end: the image sensor fills a write
// buffer at a constant rate and the DMA drains it into DRAM. Health is the
// DMA's drain rate versus the sensor's fill rate; if the DMA falls behind,
// the buffer overflows and sensor data is lost.
//
// Like DisplaySource, the sensor fill is integrated in Q32 fixed point so
// ticking over gaps reproduces per-cycle evolution exactly.
type CameraSource struct {
	name    string
	engine  *dma.Engine
	reqSize uint32 // drain transaction size
	str     *stream

	fillFP     uint64 // Q32 bytes/cycle
	bufFP      uint64
	reqFP      uint64
	occFP      uint64
	inflightFP uint64
	overflowFP uint64
	filled     sim.Cycle
}

// NewCameraSource builds a camera drain source over region r. The buffer
// starts at the 50% initial level.
func NewCameraSource(name string, e *dma.Engine, r Region,
	fillPerCycle, bufBytes float64, reqSize uint32) *CameraSource {
	s := &CameraSource{
		name:    name,
		engine:  e,
		reqSize: reqSize,
		str:     newStream(r, reqSize),
		fillFP:  toFP(fillPerCycle),
		bufFP:   toFP(bufBytes),
		reqFP:   bytesFP(reqSize),
	}
	s.occFP = s.bufFP / 2
	e.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
		s.integrateTo(now)
		sz := bytesFP(t.Size)
		s.inflightFP -= sz
		// The completed write frees its bytes in the sensor buffer.
		if s.occFP >= sz {
			s.occFP -= sz
		} else {
			s.occFP = 0
		}
	})
	return s
}

// Name returns the source label.
func (s *CameraSource) Name() string { return s.name }

// OverflowBytes reports the sensor bytes dropped because the buffer was
// full.
func (s *CameraSource) OverflowBytes() float64 { return fromFP(s.overflowFP) }

// Occupancy reports the buffer fill fraction as of the last integration
// point.
func (s *CameraSource) Occupancy() float64 {
	if s.bufFP == 0 {
		return 0
	}
	return float64(s.occFP) / float64(s.bufFP)
}

// OccupancyAt reports the buffer fill fraction at cycle now, integrating
// any pending sensor fill first (used by the occupancy meter).
func (s *CameraSource) OccupancyAt(now sim.Cycle) float64 {
	s.integrateTo(now)
	return s.Occupancy()
}

// integrateTo advances the sensor fill so that `total` single-cycle fill
// steps have been applied since the start of the run. Clamping at the
// buffer capacity is linear, so one batched step is exactly the sum of
// the per-cycle steps.
func (s *CameraSource) integrateTo(total sim.Cycle) {
	if total <= s.filled {
		return
	}
	n := uint64(total - s.filled)
	s.filled = total
	if s.fillFP == 0 {
		return
	}
	s.occFP += s.fillFP * n
	if s.occFP > s.bufFP {
		s.overflowFP += s.occFP - s.bufFP
		s.occFP = s.bufFP
	}
}

// NextActivity implements sim.Idler: the source acts when a full drain
// request has accumulated beyond what is already in flight.
//
//sara:hotpath
func (s *CameraSource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	need := s.inflightFP + s.reqFP
	if s.occFP >= need {
		if s.engine.PendingSpace() > 0 {
			return now, true
		}
		return 0, false
	}
	if s.fillFP == 0 || need > s.bufFP {
		// The buffer cannot accumulate enough while this much is in
		// flight; completions (events) re-trigger evaluation.
		return 0, false
	}
	// Absolute bound anchored at the fill cursor (see the display source's
	// NextActivity for why now-relative answers are unsound here).
	steps := ceilDiv(need-s.occFP, s.fillFP)
	if steps == 0 {
		steps = 1
	}
	at := s.filled + sim.Cycle(steps) - 1
	if at < now {
		at = now
	}
	return at, true
}

// SettleRun implements sim.Settler: flush the sensor-fill integration to
// the run horizon so the final OverflowBytes accounting is exact even
// when the source was dormant at the end of the run (see
// DisplaySource.SettleRun).
func (s *CameraSource) SettleRun(end sim.Cycle) { s.integrateTo(end) }

// Tick fills the sensor side and issues drain writes.
func (s *CameraSource) Tick(now sim.Cycle) {
	s.integrateTo(now + 1)
	// Drain whatever has accumulated beyond the requests already in
	// flight; occupancy is decremented when the write completes, so the
	// in-flight volume must be subtracted from the drainable amount. The
	// pending-space check comes first so a blocked cycle never burns a
	// stream offset (see DisplaySource.Tick).
	for s.occFP >= s.inflightFP+s.reqFP && s.engine.PendingSpace() > 0 {
		s.engine.Enqueue(txn.Write, s.str.next(), s.reqSize)
		s.inflightFP += s.reqFP
	}
}
