// Package core assembles the full SARA system: it builds the DRAM, the
// per-channel memory controllers, the two-level on-chip network, one DMA
// engine per configured core DMA with its traffic source, performance
// meter and priority adapter, and orchestrates the per-cycle pipeline.
// This package is the paper's primary contribution realized as a library:
// distributed self-monitoring (meters), distributed priority-based
// adaptation (adapters + LUTs) and distributed system response
// (priority-aware NoC and memory controller).
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// SourceKind selects a traffic generator shape.
type SourceKind uint8

const (
	// SrcFrame is a bursty whole-frame transfer engine (codec, rotator,
	// image processor, GPU, JPEG). Meter: frame progress (Eqn. 2).
	SrcFrame SourceKind = iota
	// SrcDisplay is a constant-rate read-buffer refill engine.
	// Meter: buffer occupancy / refill rate (Eqn. 3).
	SrcDisplay
	// SrcCamera is a constant-rate write-buffer drain engine.
	// Meter: buffer occupancy / drain rate.
	SrcCamera
	// SrcSporadic is a latency-sensitive sporadic engine (DSP, audio).
	// Meter: average latency vs limit (Eqn. 1).
	SrcSporadic
	// SrcRate is a steady bandwidth engine (WiFi, USB).
	// Meter: achieved vs target bandwidth.
	SrcRate
	// SrcChunk is a periodic work-chunk engine with a processing-time
	// deadline (GPS, modem). Meter: deadline / completion time.
	SrcChunk
	// SrcCPU is rate-limited random background traffic with no QoS target.
	SrcCPU
)

// String names the source kind.
func (k SourceKind) String() string {
	switch k {
	case SrcFrame:
		return "frame"
	case SrcDisplay:
		return "display"
	case SrcCamera:
		return "camera"
	case SrcSporadic:
		return "sporadic"
	case SrcRate:
		return "rate"
	case SrcChunk:
		return "chunk"
	case SrcCPU:
		return "cpu"
	}
	return "unknown"
}

// SourceSpec parameterizes a traffic source in real-time units; the
// builder converts to cycles and bytes using the DRAM clock and the
// configured time scale. Every transaction is one DRAM burst, the unit
// the device serves and counts.
type SourceSpec struct {
	Kind SourceKind
	// RateBps is the average demand in bytes per second of real time.
	// For SrcFrame it determines bytes per frame; for SrcChunk, bytes per
	// chunk; for buffered sources, the fill/drain rate; for SrcRate and
	// SrcCPU, the token rate; for SrcSporadic, the average request rate.
	RateBps float64
	// ReadFrac is the read share of the traffic (1 = all reads).
	ReadFrac float64
	// RefFactor scales a frame source's reference progress slope.
	RefFactor float64
	// BurstReqs batches a rate source's emissions (bulk-transfer style).
	BurstReqs int
	// Locality is a CPU source's sequential-run probability.
	Locality float64
	// BufSeconds sizes a display/camera buffer in seconds of traffic at
	// RateBps (scaled); 0 selects a default of 16 adaptation intervals.
	BufSeconds float64
	// LatencyLimit is a sporadic source's average-latency QoS limit in
	// cycles (Eqn. 1; 0 selects 500).
	LatencyLimit sim.Cycle
	// ChunkPeriodFrac is a chunk source's arrival period as a fraction of
	// the frame period (default 0.25).
	ChunkPeriodFrac float64
	// Scatter randomizes a chunk source's addresses (defeats row locality).
	Scatter bool
	// DeadlineFrac is a chunk's deadline as a fraction of its period
	// (default 0.6).
	DeadlineFrac float64
	// StartOffsetFrac delays the source's start by this fraction of the
	// frame period, de-phasing bursty engines.
	StartOffsetFrac float64
}

// DMASpec is one DMA of one core.
type DMASpec struct {
	// Core is the owning core's name as reported in the figures
	// ("Display", "Image Proc.", ...).
	Core string
	// DMA is the engine suffix ("rd", "wr", ""); the full label is
	// "Core/DMA".
	DMA string
	// Class routes the DMA to its memory-controller queue.
	Class txn.Class
	// Source is the traffic shape.
	Source SourceSpec
	// Window bounds outstanding transactions (0 selects a default by
	// source kind).
	Window int
	// Critical marks cores whose NPI the experiment figures track.
	Critical bool
	// LUTBounds overrides the default NPI-to-priority table.
	LUTBounds []float64
}

// Label returns the full DMA name.
func (d DMASpec) Label() string {
	if d.DMA == "" {
		return d.Core
	}
	return d.Core + "/" + d.DMA
}

// Config is the whole-system configuration. Validate states the bounds
// of every numeric field; Build panics on a config it refuses.
type Config struct {
	// Seed drives every random stream in the run (any value).
	Seed uint64
	// DRAM is the device configuration (Table 1); see dram.Config.Validate.
	DRAM dram.Config
	// Policy is the arbitration policy used by both the memory
	// controllers and the NoC arbiters (one of memctrl.AllPolicies).
	Policy memctrl.PolicyKind
	// Delta is Policy 2's row-buffer threshold (paper: 6; any value, and
	// one above the top priority level lets row hits always win).
	Delta txn.Priority
	// AgingT is the starvation limit in cycles (paper: 10000; 0 disables
	// aging; at most MaxHorizon).
	AgingT sim.Cycle
	// QueueCaps splits the 42 controller entries across the five queues
	// (each at least 1).
	QueueCaps memctrl.QueueCaps
	// NoC holds the network parameters; Arb is overridden from Policy.
	// PortDepth is at least 1; HopLatency and RespLatency are at most one
	// frame period (0 is allowed); AgingT is bounded like Config.AgingT.
	NoC noc.Params
	// PriorityBits is k; priorities span 0..2^k-1 (paper: 3; 1..4).
	PriorityBits int
	// AdaptInterval is the adaptation period in cycles (1..FramePeriod).
	AdaptInterval sim.Cycle
	// RealFrameSeconds is the unscaled frame period (1/30 s; in
	// (0, 3600]).
	RealFrameSeconds float64
	// ScaleDiv shrinks the simulated frame period and all per-frame data
	// volumes by this factor, keeping rates and latencies unchanged. It is
	// at least 1 and must leave a frame of at least SampleEvery cycles.
	ScaleDiv int
	// SampleEvery is the NPI sampling period for the figure time series
	// (1..FramePeriod).
	SampleEvery sim.Cycle
	// DMAs lists every DMA in the system; labels must be unique.
	DMAs []DMASpec
}

// maxFrameSeconds bounds RealFrameSeconds. With dram.MaxDataRateMTps it
// keeps every frame period far inside sim.Cycle.
const maxFrameSeconds = 3600

// MaxHorizon bounds a run's horizon and the aging limits: a cycle count
// plus an aging limit then never wraps sim.Cycle.
const MaxHorizon sim.Cycle = 1 << 62

// Validate reports the first field of c that no system can be built
// from, naming the field. Build panics with the same error.
func (c Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	// The rows run in order, so a frame-bound row is only reached once
	// the fields the frame is derived from have passed.
	frame := c.FramePeriod()
	for _, f := range []struct {
		bad  bool
		name string
		v    any
		want string
	}{
		{!slices.Contains(memctrl.AllPolicies(), c.Policy), "Policy", c.Policy, "one of memctrl.AllPolicies"},
		{c.PriorityBits < 1 || c.PriorityBits > 4, "PriorityBits", c.PriorityBits, "1..4"},
		{!(c.RealFrameSeconds > 0 && c.RealFrameSeconds <= maxFrameSeconds), "RealFrameSeconds", c.RealFrameSeconds, "(0, 3600]"},
		{c.ScaleDiv < 1, "ScaleDiv", c.ScaleDiv, ">= 1"},
		{c.SampleEvery == 0, "SampleEvery", c.SampleEvery, ">= 1"},
		{frame < c.SampleEvery, "ScaleDiv", c.ScaleDiv, fmt.Sprintf(
			"a frame of at least one %d-cycle NPI sample (SampleEvery), not %d cycles", c.SampleEvery, frame)},
		{c.AdaptInterval == 0 || c.AdaptInterval > frame, "AdaptInterval", c.AdaptInterval, "1..FramePeriod"},
		{c.AgingT > MaxHorizon, "AgingT", c.AgingT, "at most MaxHorizon"},
		{c.NoC.AgingT > MaxHorizon, "NoC.AgingT", c.NoC.AgingT, "at most MaxHorizon"},
		{c.NoC.PortDepth < 1, "NoC.PortDepth", c.NoC.PortDepth, ">= 1"},
		{c.NoC.HopLatency > frame, "NoC.HopLatency", c.NoC.HopLatency, "at most FramePeriod"},
		{c.NoC.RespLatency > frame, "NoC.RespLatency", c.NoC.RespLatency, "at most FramePeriod"},
		{slices.Min(c.QueueCaps[:]) < 1, "QueueCaps", c.QueueCaps, "every queue >= 1"},
	} {
		if f.bad {
			return fmt.Errorf("core: %s %v: want %s", f.name, f.v, f.want)
		}
	}
	labels := make(map[string]bool, len(c.DMAs))
	for _, d := range c.DMAs {
		if labels[d.Label()] {
			return fmt.Errorf("core: DMAs: duplicate DMA label %q", d.Label())
		}
		labels[d.Label()] = true
		if d.Source.Kind > SrcCPU {
			return fmt.Errorf("core: DMA %q: unknown source kind %v", d.Label(), d.Source.Kind)
		}
		if err := c.validateDMA(d, frame); err != nil {
			return err
		}
	}
	return nil
}

// validateDMA checks d's numeric fields for a System of c, whose frame
// is frame cycles. The values are boxed into the error only on the
// failing branch, so a valid roster validates without allocating.
func (c *Config) validateDMA(d DMASpec, frame sim.Cycle) error {
	bad := func(name string, v any, want string) error {
		return fmt.Errorf("core: DMA %q: %s %v: want %s", d.Label(), name, v, want)
	}
	src := d.Source
	levels := 1 << c.PriorityBits
	burst := uint64(c.DRAM.Geometry.BurstBytes(c.DRAM.Timing))
	period, deadline := chunkTiming(src, frame)
	switch {
	case len(d.LUTBounds) > 0 && (len(d.LUTBounds) != levels || !decreasing(d.LUTBounds)):
		return bad("LUTBounds", d.LUTBounds, fmt.Sprintf("none, or %d strictly decreasing bounds (1<<PriorityBits)", levels))
	case d.Window < 0:
		return bad("Window", d.Window, ">= 0 (0 selects the default)")
	case !(src.RateBps >= 0 && src.RateBps <= math.MaxFloat64):
		return bad("Source.RateBps", src.RateBps, "finite and >= 0")
	case !unitInterval(src.ReadFrac):
		return bad("Source.ReadFrac", src.ReadFrac, "[0, 1]")
	case !unitInterval(src.Locality):
		return bad("Source.Locality", src.Locality, "[0, 1]")
	case !unitInterval(src.StartOffsetFrac):
		return bad("Source.StartOffsetFrac", src.StartOffsetFrac, "[0, 1]")
	case src.BurstReqs < 0 || uint64(src.BurstReqs) > regionBytes/burst:
		return bad("Source.BurstReqs", src.BurstReqs, ">= 0, a burst of at most the 16 MiB DMA region (0 selects 1)")
	case !(src.RefFactor >= 0 && src.RefFactor <= math.MaxFloat64):
		return bad("Source.RefFactor", src.RefFactor, "finite and >= 0 (0 selects 1)")
	case !(src.BufSeconds >= 0 && src.BufSeconds <= c.RealFrameSeconds):
		return bad("Source.BufSeconds", src.BufSeconds, "at most one frame, RealFrameSeconds (0 selects 16 adaptation intervals)")
	case src.LatencyLimit > MaxHorizon:
		return bad("Source.LatencyLimit", src.LatencyLimit, "at most MaxHorizon (0 selects 500)")
	case !unitInterval(src.ChunkPeriodFrac) || src.Kind == SrcChunk && period == 0:
		return bad("Source.ChunkPeriodFrac", src.ChunkPeriodFrac, "[0, 1] and a chunk period of at least one cycle (0 selects 0.25)")
	case !unitInterval(src.DeadlineFrac) || src.Kind == SrcChunk && deadline == 0:
		return bad("Source.DeadlineFrac", src.DeadlineFrac, "[0, 1] and a chunk deadline of at least one cycle (0 selects 0.6)")
	}
	return nil
}

// chunkTiming is a chunk source's arrival period and deadline in cycles
// for a frame of frame cycles. A zero ChunkPeriodFrac selects a quarter
// of the frame, a zero DeadlineFrac 0.6 of the period.
func chunkTiming(src SourceSpec, frame sim.Cycle) (period, deadline sim.Cycle) {
	period = sim.Cycle(cmp.Or(src.ChunkPeriodFrac, 0.25) * float64(frame))
	return period, sim.Cycle(cmp.Or(src.DeadlineFrac, 0.6) * float64(period))
}

// unitInterval reports whether v lies in [0, 1] (NaN does not).
func unitInterval(v float64) bool { return v >= 0 && v <= 1 }

// decreasing reports whether bounds is strictly decreasing, the shape
// adapt.NewLUT requires.
func decreasing(bounds []float64) bool {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] < bounds[i-1]) {
			return false
		}
	}
	return true
}

// FramePeriod reports the scaled frame period in cycles.
func (c Config) FramePeriod() sim.Cycle {
	return c.DRAM.CyclesFromSeconds(c.RealFrameSeconds / float64(c.ScaleDiv))
}

// FrameCycles converts k frame periods into cycles. It refuses a
// negative k, which would wrap to a horizon near 2^64, and a k whose
// cycles exceed MaxHorizon.
func (c Config) FrameCycles(k int) (sim.Cycle, error) {
	if k < 0 {
		return 0, fmt.Errorf("core: %d frames: negative frame count", k)
	}
	fp := c.FramePeriod()
	if fp > 0 && sim.Cycle(k) > MaxHorizon/fp {
		return 0, fmt.Errorf("core: %d frames of %d cycles exceed the %d-cycle horizon", k, fp, MaxHorizon)
	}
	return sim.Cycle(k) * fp, nil
}

// ScaledBps converts a real-time byte rate into the scaled simulation's
// bytes-per-cycle (rates are invariant under time scaling).
func (c Config) ScaledBps(bps float64) float64 {
	return c.DRAM.BytesPerCycle(bps)
}

// SARAEnabled reports whether the configured policy uses the dynamic
// priorities (Policy 1 or Policy 2); baseline policies run with the
// adapters disabled, matching the paper's comparisons.
func (c Config) SARAEnabled() bool {
	return c.Policy == memctrl.QoS || c.Policy == memctrl.QoSRB
}

// NoCArb maps the memory-controller policy onto the NoC arbitration kind:
// priority policies use priority arbitration, the frame-rate baseline its
// urgency arbitration, round-robin stays round-robin, and FCFS/FR-FCFS use
// FCFS in the network (row-buffer state is invisible to routers).
func (c Config) NoCArb() noc.ArbKind {
	switch c.Policy {
	case memctrl.RR:
		return noc.ArbRR
	case memctrl.FrameRate:
		return noc.ArbFrameRate
	case memctrl.QoS, memctrl.QoSRB:
		return noc.ArbPriority
	default:
		return noc.ArbFCFS
	}
}
