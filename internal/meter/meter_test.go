package meter

import (
	"math"
	"testing"
	"testing/quick"

	"sara/internal/sim"
)

func TestLatencyMeterEqn1(t *testing.T) {
	m := NewLatencyMeter(500, 1.0) // alpha 1: NPI tracks the last sample
	if npi := m.NPI(0); npi != 2.0 {
		t.Fatalf("idle latency meter NPI %v, want healthy 2.0", npi)
	}
	m.Observe(250)
	if npi := m.NPI(0); npi != 2.0 {
		t.Fatalf("NPI %v, want limit/avg = 500/250 = 2", npi)
	}
	m.Observe(1000)
	if npi := m.NPI(0); npi != 0.5 {
		t.Fatalf("NPI %v, want 0.5", npi)
	}
}

func TestLatencyMeterEWMA(t *testing.T) {
	m := NewLatencyMeter(100, 0.5)
	m.Observe(100)
	m.Observe(200)
	if avg := m.Average(); avg != 150 {
		t.Fatalf("EWMA avg %v, want 150", avg)
	}
}

func TestBandwidthMeterMargin(t *testing.T) {
	m := NewBandwidthMeter(1.0, 1024)
	// Feed exactly the target rate.
	for now := sim.Cycle(0); now < 4096; now += 64 {
		m.ObserveBytes(now, 64)
	}
	npi := m.NPI(4096)
	want := 1.0 / m.Margin
	if math.Abs(npi-want) > 0.1 {
		t.Fatalf("at-target NPI %v, want ~%v", npi, want)
	}
	// A starved meter decays.
	if npi := m.NPI(4096 + 4*1024); npi >= 0.2 {
		t.Fatalf("starved NPI %v, want near 0", npi)
	}
}

func TestBandwidthMeterWarmupGrace(t *testing.T) {
	m := NewBandwidthMeter(1.0, 1024)
	if npi := m.NPI(10); npi != 1.0 {
		t.Fatalf("early NPI %v, want neutral 1.0", npi)
	}
}

func TestFrameProgressMeterEqn2(t *testing.T) {
	progress := 0.5
	start := sim.Cycle(0)
	m := NewFrameProgressMeter(1000, 1.0, func() (float64, sim.Cycle) { return progress, start })

	// Halfway through the frame at half progress: NPI = 1.
	if npi := m.NPI(500); math.Abs(npi-1.0) > 1e-9 {
		t.Fatalf("NPI %v, want 1.0", npi)
	}
	// Early in the frame the reference is tiny: healthy.
	if npi := m.NPI(1); npi != 2.0 {
		t.Fatalf("frame-start NPI %v, want 2.0", npi)
	}
	// Behind schedule.
	progress = 0.25
	if npi := m.NPI(500); math.Abs(npi-0.5) > 1e-9 {
		t.Fatalf("behind NPI %v, want 0.5", npi)
	}
	// Reference clamps at 1 past the period.
	progress = 1.0
	if npi := m.NPI(5000); math.Abs(npi-1.0) > 1e-9 {
		t.Fatalf("late NPI %v, want 1.0", npi)
	}
}

func TestFrameProgressReferenceFactor(t *testing.T) {
	m := NewFrameProgressMeter(1000, 0.5, func() (float64, sim.Cycle) { return 0.25, 0 })
	// At t=500 the x0.5 reference is 0.25: on target.
	if npi := m.NPI(500); math.Abs(npi-1.0) > 1e-9 {
		t.Fatalf("NPI %v with 0.5 reference, want 1.0", npi)
	}
}

func TestOccupancyMeterEqn3Display(t *testing.T) {
	occ := 0.5
	m := NewOccupancyMeter(2.0, 1000, 8000, false, func(sim.Cycle) float64 { return occ })
	// At the initial level: NPI = 1 exactly (Eqn. 3 with dOcc = 0).
	if npi := m.NPI(0); math.Abs(npi-1.0) > 1e-9 {
		t.Fatalf("NPI %v at initial occupancy, want 1.0", npi)
	}
	// Full buffer: 1 + 0.5*8000/(2*1000) = 3.
	occ = 1.0
	if npi := m.NPI(0); math.Abs(npi-3.0) > 1e-9 {
		t.Fatalf("NPI %v at full buffer, want 3.0", npi)
	}
	// Empty buffer: 1 - 2 = clamp to MinNPI.
	occ = 0.0
	if npi := m.NPI(0); npi != MinNPI {
		t.Fatalf("NPI %v at empty buffer, want clamp %v", npi, MinNPI)
	}
}

func TestOccupancyMeterInvertedCamera(t *testing.T) {
	occ := 0.9 // camera buffer filling up = DMA behind
	m := NewOccupancyMeter(2.0, 1000, 8000, true, func(sim.Cycle) float64 { return occ })
	if npi := m.NPI(0); npi >= 1 {
		t.Fatalf("camera NPI %v with overfull buffer, want < 1", npi)
	}
	occ = 0.1
	if npi := m.NPI(0); npi <= 1 {
		t.Fatalf("camera NPI %v with drained buffer, want > 1", npi)
	}
}

func TestChunkMeterLifecycle(t *testing.T) {
	progress := 0.0
	m := NewChunkMeter(1000, func() float64 { return progress })
	if npi := m.NPI(0); npi != 2.0 {
		t.Fatalf("initial chunk NPI %v, want 2.0", npi)
	}
	m.ChunkStarted(0)
	// 40% through the deadline with 20% progress: NPI = 0.5.
	progress = 0.2
	if npi := m.NPI(400); math.Abs(npi-0.5) > 1e-9 {
		t.Fatalf("in-flight NPI %v, want 0.5", npi)
	}
	// Past the deadline the NPI degrades with elapsed time.
	if npi := m.NPI(2000); math.Abs(npi-0.5) > 1e-9 {
		t.Fatalf("overrun NPI %v, want deadline/elapsed = 0.5", npi)
	}
	m.ChunkDone(2000)
	if npi := m.NPI(3000); math.Abs(npi-0.5) > 1e-9 {
		t.Fatalf("completed NPI %v, want 1000/2000", npi)
	}
	// A fast chunk restores health.
	m.ChunkStarted(3000)
	m.ChunkDone(3200)
	if npi := m.NPI(3300); math.Abs(npi-5.0) > 1e-9 {
		t.Fatalf("fast-chunk NPI %v, want 5.0", npi)
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v float64) bool {
		c := clamp(v)
		return c >= MinNPI && c <= MaxNPI
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if clamp(math.NaN()) != MinNPI {
		t.Fatal("NaN did not clamp to MinNPI")
	}
}

func TestStallAttribution(t *testing.T) {
	// Target met: nothing to attribute.
	if r, c := StallAttribution(1.2, 0.07); r != 0 || c != 0 {
		t.Fatalf("healthy core attributed (%v, %v), want zeros", r, c)
	}
	// Shortfall larger than the refresh duty: refresh is capped at its
	// duty, the rest is contention.
	r, c := StallAttribution(0.8, 0.07)
	if math.Abs(r-0.07) > 1e-12 || math.Abs(c-0.13) > 1e-12 {
		t.Fatalf("attribution (%v, %v), want (0.07, 0.13)", r, c)
	}
	// Shortfall smaller than the duty: refresh absorbs all of it.
	r, c = StallAttribution(0.98, 0.07)
	if math.Abs(r-0.02) > 1e-12 || c != 0 {
		t.Fatalf("attribution (%v, %v), want (0.02, 0)", r, c)
	}
	// A negative duty (defensive) attributes everything to contention.
	if r, c := StallAttribution(0.9, -1); r != 0 || math.Abs(c-0.1) > 1e-12 {
		t.Fatalf("attribution (%v, %v), want (0, 0.1)", r, c)
	}
}

func TestBandwidthMeterDefaultMargin(t *testing.T) {
	m := NewBandwidthMeter(1.0, 1024)
	if m.Margin != DefaultMargin {
		t.Fatalf("constructor Margin %v, want DefaultMargin %v", m.Margin, DefaultMargin)
	}
	if DefaultMargin != 0.88 {
		t.Fatalf("DefaultMargin %v, want the documented 0.88", DefaultMargin)
	}
}
