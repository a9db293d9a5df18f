package traffic

import (
	"sara/internal/dma"
	"sara/internal/sim"
)

// SporadicSource models latency-sensitive engines like the DSP and audio:
// individually small, randomly addressed requests at a modest average rate
// whose value lies entirely in completing quickly (Eqn. 1). Random
// addressing defeats row-buffer locality, which is what makes these cores
// vulnerable to FR-FCFS-style bandwidth optimizers (Fig. 9).
type SporadicSource struct {
	name   string
	engine *dma.Engine

	// MeanGap is the average inter-arrival time in cycles.
	MeanGap float64
	// ReqSize is the transaction size.
	ReqSize uint32
	// ReadFrac is the fraction of requests that are reads.
	ReadFrac float64

	rng    *sim.Rand
	region Region
	picker kindPicker

	nextArrival sim.Cycle
	dropped     uint64
}

// NewSporadicSource builds a sporadic source with geometric inter-arrival
// times of mean meanGap cycles over region r.
func NewSporadicSource(name string, e *dma.Engine, rng *sim.Rand, r Region,
	meanGap float64, reqSize uint32, readFrac float64) *SporadicSource {
	return &SporadicSource{
		name:        name,
		engine:      e,
		MeanGap:     meanGap,
		ReqSize:     reqSize,
		ReadFrac:    readFrac,
		rng:         rng,
		region:      r,
		picker:      kindPicker{readFrac: readFrac, rng: rng},
		nextArrival: sim.Cycle(rng.Geometric(meanGap)),
	}
}

// Name returns the source label.
func (s *SporadicSource) Name() string { return s.name }

// Dropped reports requests lost to a full DMA queue (should stay zero in a
// well-provisioned system; tests assert it).
func (s *SporadicSource) Dropped() uint64 { return s.dropped }

// NextActivity implements sim.Idler: the arrival process fires at a known
// future cycle and Tick is a strict no-op before it.
//
//sara:hotpath
func (s *SporadicSource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if s.nextArrival > now {
		return s.nextArrival, true
	}
	return now, true
}

// Tick issues a request whenever the arrival process fires.
func (s *SporadicSource) Tick(now sim.Cycle) {
	for now >= s.nextArrival {
		if !s.engine.Enqueue(s.picker.pick(), randomIn(s.rng, s.region, s.ReqSize), s.ReqSize) {
			s.dropped++
		}
		s.nextArrival += sim.Cycle(s.rng.Geometric(s.MeanGap))
	}
}

// RateSource models steady bandwidth consumers such as WiFi and USB: a
// token bucket fills at the target rate and requests are emitted in small
// bursts (bulk-transfer style), walking a region sequentially. Tokens
// accumulate in Q32 fixed point keyed off the absolute cycle, so the
// bucket evolves identically whether the kernel ticks it every cycle or
// fast-forwards over the accumulation gaps.
type RateSource struct {
	name   string
	engine *dma.Engine

	// ReqSize is the transaction size.
	ReqSize uint32
	// BurstReqs groups emissions: tokens are paid out only once a full
	// burst's worth has accumulated, creating the bursty arrival pattern
	// of bulk I/O engines. 1 means smooth.
	BurstReqs int

	rng    *sim.Rand
	str    *stream
	picker kindPicker

	bucket
	reqFP   uint64
	burstFP uint64 // Q32 bytes per full burst
}

// NewRateSource builds a rate-driven source over region r.
func NewRateSource(name string, e *dma.Engine, rng *sim.Rand, r Region,
	ratePerCycle float64, reqSize uint32, burstReqs int, readFrac float64) *RateSource {
	if burstReqs <= 0 {
		burstReqs = 1
	}
	return &RateSource{
		name:      name,
		engine:    e,
		ReqSize:   reqSize,
		BurstReqs: burstReqs,
		rng:       rng,
		str:       newStream(r, reqSize),
		picker:    kindPicker{readFrac: readFrac, rng: rng},
		bucket:    bucket{rateFP: toFP(ratePerCycle)},
		reqFP:     bytesFP(reqSize),
		burstFP:   bytesFP(reqSize) * uint64(burstReqs),
	}
}

// Name returns the source label.
func (s *RateSource) Name() string { return s.name }

// NextActivity implements sim.Idler: the source acts on the first cycle
// whose token fill completes a burst (see bucket.next).
//
//sara:hotpath
func (s *RateSource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	return s.next(now, s.burstFP, s.engine)
}

// Tick accumulates tokens and emits whole bursts when funded. The random
// stream is consumed only for requests that are actually enqueued, so
// with the bucket's batched clamp (see bucket.fund) a tick after n
// fast-forwarded blocked cycles is bit-identical to n blocked
// single-cycle ticks.
func (s *RateSource) Tick(now sim.Cycle) {
	capFP := 4 * s.burstFP // a few bursts
	s.fund(now, capFP)
	for s.tokensFP >= s.burstFP {
		if s.engine.PendingSpace() == 0 {
			s.saturate(capFP)
			return
		}
		emitted := uint64(0)
		for i := 0; i < s.BurstReqs && s.engine.PendingSpace() > 0; i++ {
			s.engine.Enqueue(s.picker.pick(), s.str.next(), s.ReqSize)
			emitted++
		}
		s.tokensFP -= emitted * s.reqFP
	}
}
