package traffic

import (
	"sara/internal/dma"
	"sara/internal/sim"
	"sara/internal/txn"
)

// CPUSource models the CPU cluster's background cache-miss traffic: a
// rate-limited stream whose addresses mix short sequential runs (spatial
// locality of cache-line fills along a miss stream) with random jumps.
// The CPU has no hard QoS target in the camcorder use case; it provides
// the realistic background pressure the paper's traffic model includes.
type CPUSource struct {
	name   string
	engine *dma.Engine

	// ReqSize is the transaction size.
	ReqSize uint32
	// Locality is the probability that the next access continues the
	// current sequential run instead of jumping to a random address.
	Locality float64

	rng    *sim.Rand
	region Region
	picker kindPicker
	cursor txn.Addr

	bucket
	reqFP uint64
}

// NewCPUSource builds a CPU background source over region r.
func NewCPUSource(name string, e *dma.Engine, rng *sim.Rand, r Region,
	ratePerCycle float64, reqSize uint32, readFrac, locality float64) *CPUSource {
	return &CPUSource{
		name:     name,
		engine:   e,
		ReqSize:  reqSize,
		Locality: locality,
		rng:      rng,
		region:   r,
		picker:   kindPicker{readFrac: readFrac, rng: rng},
		cursor:   r.Base,
		bucket:   bucket{rateFP: toFP(ratePerCycle)},
		reqFP:    bytesFP(reqSize),
	}
}

// Name returns the source label.
func (s *CPUSource) Name() string { return s.name }

// NextActivity implements sim.Idler: the source acts on the first cycle
// whose token fill funds one request (see bucket.next).
//
//sara:hotpath
func (s *CPUSource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	return s.next(now, s.reqFP, s.engine)
}

// Tick emits rate-funded requests along the locality-mixed address walk.
// The random walk advances only for requests actually enqueued, so with
// the bucket's batched clamp (see bucket.fund) a tick after n
// fast-forwarded blocked cycles is bit-identical to n blocked
// single-cycle ticks.
func (s *CPUSource) Tick(now sim.Cycle) {
	capFP := 8 * s.reqFP
	s.fund(now, capFP)
	for s.tokensFP >= s.reqFP {
		if s.engine.PendingSpace() == 0 {
			s.saturate(capFP)
			return
		}
		s.engine.Enqueue(s.picker.pick(), s.nextAddr(), s.ReqSize)
		s.tokensFP -= s.reqFP
	}
}

func (s *CPUSource) nextAddr() txn.Addr {
	if s.rng.Bool(s.Locality) {
		s.cursor += txn.Addr(s.ReqSize)
		if uint64(s.cursor-s.region.Base)+uint64(s.ReqSize) > s.region.Size {
			s.cursor = s.region.Base
		}
		return s.cursor
	}
	s.cursor = randomIn(s.rng, s.region, s.ReqSize)
	return s.cursor
}
