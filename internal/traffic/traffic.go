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

// Source drives one DMA engine. It is not a kernel ticker of its own: it
// ticks inside its DMA unit (core.Unit), right before the engine, and the
// unit's wake is the earlier of the source's and the engine's answers.
// The kernel may fast-forward over cycles the unit declares quiescent, so
// sources integrate time from the cycle number rather than counting Tick
// calls, and a tick on a cycle the source's own answer did not cover must
// leave no trace.
//
// A source's answer is re-queried right after each unit tick and when the
// unit's cached wake comes due, so the two events that can move it
// EARLIER need no wiring of their own: a pending-queue pop (every hint
// here consults PendingSpace) happens in the engine's tick inside the
// unit, and a completion delivery — which the occupancy sources' hints
// read as in-flight bytes — re-arms the unit (dma.Engine.Deliver).
// Everything else about a source's schedule is self-timed from its own
// state, which only its own Tick mutates.
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
