// Package meter implements the distributed performance meters of Section
// 3.1: each DMA owns a lightweight meter that measures its core's own
// notion of QoS — average latency (Eqn. 1), frame progress (Eqn. 2),
// buffer occupancy / refill rate (Eqn. 3), achieved bandwidth, or
// work-chunk processing time — and normalizes it into the Normalized
// Performance Indicator (NPI). NPI >= 1 means the target performance is
// met; the further below 1, the less healthy the core.
package meter

import (
	"math"

	"sara/internal/sim"
	"sara/internal/stats"
)

// Clamp bounds NPI values for numerical robustness and plotting; the
// paper's figures use a log axis from 0.1 to 10, our internal range is
// wider so information is not lost before rendering.
const (
	// MinNPI is the lower clamp.
	MinNPI = 0.01
	// MaxNPI is the upper clamp.
	MaxNPI = 100.0
)

func clamp(v float64) float64 {
	if math.IsNaN(v) {
		return MinNPI
	}
	if v < MinNPI {
		return MinNPI
	}
	if v > MaxNPI {
		return MaxNPI
	}
	return v
}

// Meter is a per-DMA performance meter producing an NPI value on demand.
type Meter interface {
	// NPI reports the current normalized performance indicator.
	NPI(now sim.Cycle) float64
}

// --- Latency (Eqn. 1: NPI = maximum latency limit / average latency) ---

// LatencyMeter tracks the average end-to-end transaction latency against a
// maximum limit. Used by the DSP and audio cores.
type LatencyMeter struct {
	// Limit is the maximum tolerable average latency in cycles.
	Limit sim.Cycle
	avg   *stats.EWMA
}

// NewLatencyMeter returns a meter with the given latency limit. alpha is
// the EWMA smoothing factor; 0 selects a default suited to sporadic
// request streams.
func NewLatencyMeter(limit sim.Cycle, alpha float64) *LatencyMeter {
	if alpha == 0 {
		alpha = 0.1
	}
	return &LatencyMeter{Limit: limit, avg: stats.NewEWMA(alpha)}
}

// Observe records one completed transaction's latency.
func (m *LatencyMeter) Observe(latency sim.Cycle) {
	m.avg.Add(float64(latency))
}

// Average reports the current average latency estimate in cycles.
func (m *LatencyMeter) Average() float64 { return m.avg.Value() }

// NPI reports limit/average; before any sample it reports a healthy 2.0
// so an idle core does not demand priority.
func (m *LatencyMeter) NPI(sim.Cycle) float64 {
	if !m.avg.Primed() || m.avg.Value() <= 0 {
		return 2.0
	}
	return clamp(float64(m.Limit) / m.avg.Value())
}

// --- Bandwidth (NPI = achieved bandwidth / target bandwidth) ---

// BandwidthMeter tracks achieved bytes/cycle over a sliding window against
// a target. Used by WiFi and USB. Targets carry a small provisioning
// margin (the required rate is Margin*Target), so a core keeping up with
// its nominal rate reads slightly above 1 instead of oscillating around it
// with window-edge noise.
type BandwidthMeter struct {
	// Target is the required bandwidth in bytes per cycle.
	Target float64
	// Margin scales the target for the NPI ratio; NewBandwidthMeter sets
	// it to DefaultMargin.
	Margin  float64
	counter *stats.Counter
}

// DefaultMargin is the provisioning margin NewBandwidthMeter applies to
// the target rate. The constructor and this doc share the constant so
// they cannot drift apart again.
const DefaultMargin = 0.88

// NewBandwidthMeter returns a meter with the given target (bytes/cycle)
// measured over window cycles and Margin set to DefaultMargin.
func NewBandwidthMeter(target float64, window sim.Cycle) *BandwidthMeter {
	return &BandwidthMeter{Target: target, Margin: DefaultMargin, counter: stats.NewCounter(window, 16)}
}

// ObserveBytes records n completed bytes at cycle now.
func (m *BandwidthMeter) ObserveBytes(now sim.Cycle, n int) {
	m.counter.Add(now, float64(n))
}

// NPI reports achieved/(Margin*target). During the first window it reports
// healthy until enough time has passed for the rate to be meaningful.
func (m *BandwidthMeter) NPI(now sim.Cycle) float64 {
	if m.Target <= 0 {
		return MaxNPI
	}
	if now < m.counter.Window()/4 {
		return 1.0
	}
	return clamp(m.counter.Rate(now) / (m.Margin * m.Target))
}

// --- Frame progress (Eqn. 2: NPI = frame progress / reference progress) ---

// ProgressFunc reports a core's progress through its current frame in
// [0, 1] and the cycle the frame started.
type ProgressFunc func() (progress float64, frameStart sim.Cycle)

// FrameProgressMeter compares frame progress against a reference progress
// line that grows proportionally with frame time (GPU, video codec, image
// processor, rotator, JPEG).
type FrameProgressMeter struct {
	// Period is the frame period in cycles.
	Period sim.Cycle
	// RefFactor scales the reference slope; 1.0 demands the average data
	// rate of the target performance (Fig. 4(b) also shows 0.75 and 0.5).
	RefFactor float64
	progress  ProgressFunc
}

// NewFrameProgressMeter builds the meter from the source's progress probe.
func NewFrameProgressMeter(period sim.Cycle, refFactor float64, fn ProgressFunc) *FrameProgressMeter {
	if refFactor <= 0 {
		refFactor = 1.0
	}
	return &FrameProgressMeter{Period: period, RefFactor: refFactor, progress: fn}
}

// Reference reports the reference progress at cycle now.
func (m *FrameProgressMeter) Reference(now sim.Cycle) float64 {
	_, start := m.progress()
	elapsed := float64(now-start) / float64(m.Period)
	ref := elapsed * m.RefFactor
	if ref > 1 {
		ref = 1
	}
	return ref
}

// NPI reports progress/reference. At the very start of a frame, before the
// reference has grown past a minimal epsilon, the core reports healthy.
func (m *FrameProgressMeter) NPI(now sim.Cycle) float64 {
	p, _ := m.progress()
	ref := m.Reference(now)
	const eps = 0.005
	if ref < eps {
		return 2.0
	}
	return clamp(p / ref)
}

// --- Buffer occupancy (Eqn. 3: NPI = Rrefill / Rread) ---

// OccupancyMeter implements Eqn. 3: the health of a buffered constant-rate
// core is indicated by the deviation of its buffer occupancy from the
// initial (50%) level, normalized by the constant rate and the observation
// window:
//
//	NPI = Rrefill/Rread = 1 + dOccupancy / (Rread * t)
//
// For the display, occupancy above 50% means the refill DMA is keeping up
// (NPI > 1) and a draining buffer pushes the NPI toward 0. For the camera
// the sign flips: occupancy *rising* above 50% means the drain DMA is
// falling behind the sensor.
type OccupancyMeter struct {
	// TargetRate is the panel read rate (display) or sensor fill rate
	// (camera) in bytes/cycle.
	TargetRate float64
	// BufBytes is the buffer capacity.
	BufBytes float64
	// InitFrac is the initial occupancy level (paper: 0.5).
	InitFrac float64
	// Window is the normalization time t of Eqn. 3, in cycles.
	Window sim.Cycle
	// Invert flips the deviation sign for drain-side (camera) buffers.
	Invert bool
	// occupancy probes the buffer fill fraction at a given cycle. Taking
	// the cycle lets buffered sources integrate any pending drain/fill
	// before answering, so sampling is exact even when the kernel
	// fast-forwarded over the preceding cycles.
	occupancy func(now sim.Cycle) float64
}

// NewOccupancyMeter builds an Eqn. 3 meter. target is in bytes/cycle.
func NewOccupancyMeter(target float64, window sim.Cycle, bufBytes float64,
	invert bool, occupancy func(now sim.Cycle) float64) *OccupancyMeter {
	return &OccupancyMeter{
		TargetRate: target,
		BufBytes:   bufBytes,
		InitFrac:   0.5,
		Window:     window,
		Invert:     invert,
		occupancy:  occupancy,
	}
}

// OccupancyAt reports the buffer fill fraction at cycle now.
func (m *OccupancyMeter) OccupancyAt(now sim.Cycle) float64 {
	if m.occupancy == nil {
		return 0
	}
	return m.occupancy(now)
}

// NPI reports 1 + dOccupancy/(rate*window), per Eqn. 3.
func (m *OccupancyMeter) NPI(now sim.Cycle) float64 {
	if m.TargetRate <= 0 {
		return MaxNPI
	}
	delta := (m.OccupancyAt(now) - m.InitFrac) * m.BufBytes
	if m.Invert {
		delta = -delta
	}
	return clamp(1 + delta/(m.TargetRate*float64(m.Window)))
}

// --- Processing time (GPS, modem) ---

// ChunkMeter measures the processing time of periodic work chunks against
// a deadline. While a chunk is in flight the meter compares the chunk's
// transfer progress against the elapsed fraction of the deadline — the
// same reference-progress construction as Eqn. 2, applied to the chunk —
// so the adaptation can react *before* the deadline is blown. On
// completion it records deadline/actual.
type ChunkMeter struct {
	// Deadline is the allowed processing time in cycles.
	Deadline sim.Cycle

	// progress probes the in-flight chunk's completion fraction [0,1].
	progress func() float64

	inFlight   bool
	chunkStart sim.Cycle
	lastNPI    float64
}

// NewChunkMeter returns a meter with the given deadline. progress may be
// nil, in which case the meter only degrades after the deadline passes.
func NewChunkMeter(deadline sim.Cycle, progress func() float64) *ChunkMeter {
	return &ChunkMeter{Deadline: deadline, progress: progress, lastNPI: 2.0}
}

// SetProgress installs the chunk-progress probe after construction (the
// source and meter reference each other).
func (m *ChunkMeter) SetProgress(fn func() float64) { m.progress = fn }

// ChunkStarted notes that a new chunk began at cycle now.
func (m *ChunkMeter) ChunkStarted(now sim.Cycle) {
	m.inFlight = true
	m.chunkStart = now
}

// ChunkDone notes that the in-flight chunk completed at cycle now.
func (m *ChunkMeter) ChunkDone(now sim.Cycle) {
	if !m.inFlight {
		return
	}
	m.inFlight = false
	elapsed := now - m.chunkStart
	if elapsed == 0 {
		elapsed = 1
	}
	m.lastNPI = clamp(float64(m.Deadline) / float64(elapsed))
}

// NPI reports chunk progress against the deadline's reference progress
// while a chunk is in flight, and the last completed chunk's deadline
// ratio otherwise.
func (m *ChunkMeter) NPI(now sim.Cycle) float64 {
	if !m.inFlight {
		return clamp(m.lastNPI)
	}
	elapsed := now - m.chunkStart
	ref := float64(elapsed) / float64(m.Deadline)
	if ref > 1 || m.progress == nil {
		// Past the deadline (or no progress probe): degrade with time.
		if elapsed > m.Deadline {
			return clamp(float64(m.Deadline) / float64(elapsed))
		}
		return clamp(m.lastNPI)
	}
	const eps = 0.02
	if ref < eps {
		return 2.0
	}
	return clamp(m.progress() / ref)
}

// StallAttribution splits a measured NPI shortfall (1 - npi, zero when
// the target is met) between DRAM refresh and everything else. Refresh
// steals at most its blackout duty — the fraction of rank-cycles spent
// under tRFC — so that bounds the share it can be blamed for; the
// remainder is contention (arbitration, row conflicts, bus turnaround).
// Reports use it to say "the dip is refresh cadence, not the policy".
func StallAttribution(npi, refreshDuty float64) (refresh, contention float64) {
	shortfall := 1 - npi
	if shortfall <= 0 {
		return 0, 0
	}
	if refreshDuty < 0 {
		refreshDuty = 0
	}
	refresh = refreshDuty
	if refresh > shortfall {
		refresh = shortfall
	}
	return refresh, shortfall - refresh
}
