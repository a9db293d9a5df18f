package traffic

import (
	"sara/internal/dma"
	"sara/internal/sim"
	"sara/internal/txn"
)

// FrameSource models a bursty frame-based engine: all of a frame's data is
// available at the start of the frame period, and the engine transfers it
// as fast as the memory system allows (video codec, rotator, image
// processor, GPU and JPEG behave this way; see Section 4.1). Its health is
// frame progress versus reference progress (Eqn. 2).
type FrameSource struct {
	name   string
	engine *dma.Engine

	// BytesPerFrame is the data volume each frame moves.
	BytesPerFrame uint64
	// Period is the frame period in cycles.
	Period sim.Cycle
	// reqSize is the per-transaction size (one DRAM burst).
	reqSize uint32
	// RefFactor scales the reference progress slope (Fig. 4(b)).
	RefFactor float64
	// StartOffset delays the first frame, de-phasing multiple sources.
	StartOffset sim.Cycle

	rng    *sim.Rand
	str    *stream
	picker kindPicker

	frameStart  sim.Cycle
	issuedBytes uint64
	doneBytes   uint64
	started     bool

	// FramesCompleted and FramesMissed count frames that finished their
	// transfer before/after the period ended.
	FramesCompleted uint64
	FramesMissed    uint64
}

// NewFrameSource builds a bursty frame source over region r driving e.
func NewFrameSource(name string, e *dma.Engine, rng *sim.Rand, r Region,
	bytesPerFrame uint64, period sim.Cycle, reqSize uint32, readFrac, refFactor float64) *FrameSource {
	s := &FrameSource{
		name:          name,
		engine:        e,
		BytesPerFrame: bytesPerFrame,
		Period:        period,
		reqSize:       reqSize,
		RefFactor:     refFactor,
		rng:           rng,
		str:           newStream(r, reqSize),
		picker:        kindPicker{readFrac: readFrac, rng: rng},
	}
	e.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
		s.doneBytes += uint64(t.Size)
	})
	// The frame-rate-based QoS baseline marks transactions urgent when the
	// core has fallen behind its reference progress. The DMA probes this
	// at injection time, with the injection cycle.
	e.SetUrgentProbe(func(now sim.Cycle) bool {
		p, _ := s.Progress()
		return p < s.referenceAt(now)
	})
	return s
}

// Name returns the source label.
func (s *FrameSource) Name() string { return s.name }

// NextActivity implements sim.Idler: a frame source is busy while it still
// has frame bytes to hand to the DMA, and otherwise sleeps until its next
// frame boundary (or its initial start offset). Completions that land in
// between arrive as kernel events and do not need the source awake.
//
//sara:hotpath
func (s *FrameSource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if !s.started {
		if s.StartOffset > now {
			return s.StartOffset, true
		}
		return now, true
	}
	if s.issuedBytes < s.BytesPerFrame && s.engine.PendingSpace() > 0 {
		return now, true
	}
	// Frame fully handed to the DMA, or the DMA queue is full (it drains
	// only through executed cycles): sleep until the frame boundary.
	return s.frameStart + s.Period, true
}

// referenceAt computes the reference progress line at cycle now.
func (s *FrameSource) referenceAt(now sim.Cycle) float64 {
	if now < s.frameStart {
		return 0
	}
	ref := float64(now-s.frameStart) / float64(s.Period)
	if s.RefFactor > 0 {
		ref *= s.RefFactor
	}
	if ref > 1 {
		ref = 1
	}
	return ref
}

// Progress reports frame progress in [0,1] and the frame start cycle; it
// feeds meter.FrameProgressMeter.
func (s *FrameSource) Progress() (float64, sim.Cycle) {
	if !s.started || s.BytesPerFrame == 0 {
		// Before the engine's first frame there is nothing due, so the
		// core is healthy by definition.
		return 1, s.frameStart
	}
	p := float64(s.doneBytes) / float64(s.BytesPerFrame)
	if p > 1 {
		p = 1
	}
	return p, s.frameStart
}

// Tick starts frames on period boundaries and enqueues the remaining frame
// bytes as fast as the DMA accepts them.
func (s *FrameSource) Tick(now sim.Cycle) {
	if !s.started {
		if now < s.StartOffset {
			return
		}
		s.started = true
		s.frameStart = now
	}
	if now-s.frameStart >= s.Period {
		if s.doneBytes >= s.BytesPerFrame {
			s.FramesCompleted++
		} else {
			s.FramesMissed++
		}
		s.frameStart = now
		s.issuedBytes = 0
		s.doneBytes = 0
	}
	for s.issuedBytes < s.BytesPerFrame && s.engine.PendingSpace() > 0 {
		if !s.engine.Enqueue(s.picker.pick(), s.str.next(), s.reqSize) {
			break
		}
		s.issuedBytes += uint64(s.reqSize)
	}
}
