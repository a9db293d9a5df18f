// Package traffic implements the per-core memory traffic generators that
// substitute for the paper's proprietary next-generation MPSoC traces.
// Each source models one DMA's demand shape from the camcorder use case
// (Fig. 2): bursty whole-frame transfers (video codec, rotator, image
// processor, JPEG, GPU), constant-rate buffered streams (display refill,
// camera sensor), sporadic latency-sensitive accesses (DSP, audio),
// steady bandwidth streams (WiFi, USB), periodic work chunks with
// deadlines (GPS, modem), and random CPU background traffic.
package traffic

import (
	"sara/internal/sim"
	"sara/internal/txn"
)

// Source drives one DMA engine. Tick is called on every executed cycle,
// before the DMA injects; the kernel may fast-forward over cycles the
// NextActivity hint declares quiescent, so sources integrate time from
// the cycle number rather than counting Tick calls.
//
// Under the kernel's push-based wake wheel a source's hint is re-queried
// only when its cached wake surfaces, so the two external events that can
// move a source's next activity EARLIER must re-arm its kernel wake. Both
// are observed by the DMA engine the source feeds, which owns the re-arms
// (see dma.Engine.BindSourceWake): a pending-queue pop from full (every
// hint here consults PendingSpace), and — for the occupancy sources,
// whose hints read in-flight bytes — a completion delivery. Everything
// else about a source's schedule is self-timed from its own state, which
// only its own Tick mutates, so no further wiring is needed.
type Source interface {
	// Name labels the source (usually the DMA name).
	Name() string
	// Tick generates requests for cycle now.
	Tick(now sim.Cycle)
	// NextActivity reports the source's next self-generated work, per
	// the sim.Idler contract. Embedding it in the interface guarantees
	// every assembled system supports idle skipping.
	sim.Idler
}

// Region is the physical address range a DMA walks. Regions are assigned
// disjointly per DMA by the SoC assembly so cores never alias rows.
type Region struct {
	Base txn.Addr
	Size uint64
}

// stream walks a region sequentially in req-sized steps, wrapping at the
// end. Sequential walks give the high row-buffer locality streaming
// engines have in practice.
type stream struct {
	region Region
	offset uint64
	req    uint64
}

func newStream(r Region, reqSize uint32) *stream {
	return &stream{region: r, req: uint64(reqSize)}
}

// next returns the next sequential address.
func (s *stream) next() txn.Addr {
	a := s.region.Base + txn.Addr(s.offset)
	s.offset += s.req
	if s.offset+s.req > s.region.Size {
		s.offset = 0
	}
	return a
}

// randomIn returns a burst-aligned random address within the region,
// which defeats row-buffer locality (used by DSP/audio/CPU-miss traffic).
func randomIn(rng *sim.Rand, r Region, reqSize uint32) txn.Addr {
	slots := r.Size / uint64(reqSize)
	if slots == 0 {
		return r.Base
	}
	return r.Base + txn.Addr(uint64(rng.Intn(int(slots)))*uint64(reqSize))
}

// kindPicker chooses read vs write according to a read fraction.
type kindPicker struct {
	readFrac float64
	rng      *sim.Rand
}

func (k kindPicker) pick() txn.Kind {
	if k.readFrac >= 1 {
		return txn.Read
	}
	if k.readFrac <= 0 {
		return txn.Write
	}
	if k.rng.Bool(k.readFrac) {
		return txn.Read
	}
	return txn.Write
}
