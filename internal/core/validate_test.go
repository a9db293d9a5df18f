package core_test

import (
	"math"
	"strings"
	"testing"

	"sara/internal/core"
	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

// TestConfigValidateEveryNumericField sets each numeric field of a
// core.Config (and of its NoC, QueueCaps and data rate) to zero, a
// negative value where the type has one, and a huge value; the per-DMA
// rows give the first DMA (or the first chunk source) a malformed LUT, a
// negative window, a negative or non-finite rate or reference factor,
// fractions outside [0, 1], a request or burst larger than its address
// region, a buffer longer than a frame, a latency limit past MaxHorizon
// and a chunk period or deadline under one cycle, and the last rows give
// the DMA roster a duplicate label and an unknown source kind.
// Validate must refuse the value with an error that names the field, or
// accept it; an accepted config must build and run two NPI sample
// periods without a panic. Build must panic exactly when Validate
// refuses.
func TestConfigValidateEveryNumericField(t *testing.T) {
	t.Parallel()
	const maxCycle = sim.Cycle(math.MaxUint64)
	type value struct {
		set func(*core.Config)
		ok  bool
	}
	rows := []struct {
		field  string
		values []value
	}{
		{"Seed", []value{
			{func(c *core.Config) { c.Seed = 0 }, true},
			{func(c *core.Config) { c.Seed = math.MaxUint64 }, true}}},
		{"Delta", []value{
			{func(c *core.Config) { c.Delta = 0 }, true},
			{func(c *core.Config) { c.Delta = math.MaxUint8 }, true}}},
		{"AgingT", []value{
			{func(c *core.Config) { c.AgingT = 0 }, true},
			{func(c *core.Config) { c.AgingT = core.MaxHorizon }, true},
			{func(c *core.Config) { c.AgingT = maxCycle }, false}}},
		{"PriorityBits", []value{
			{func(c *core.Config) { c.PriorityBits = 0 }, false},
			{func(c *core.Config) { c.PriorityBits = -1 }, false},
			{func(c *core.Config) { c.PriorityBits = math.MaxInt }, false}}},
		{"AdaptInterval", []value{
			{func(c *core.Config) { c.AdaptInterval = 0 }, false},
			{func(c *core.Config) { c.AdaptInterval = maxCycle }, false}}},
		{"RealFrameSeconds", []value{
			{func(c *core.Config) { c.RealFrameSeconds = 0 }, false},
			{func(c *core.Config) { c.RealFrameSeconds = -1 }, false},
			{func(c *core.Config) { c.RealFrameSeconds = math.MaxFloat64 }, false},
			{func(c *core.Config) { c.RealFrameSeconds = math.NaN() }, false}}},
		{"ScaleDiv", []value{
			{func(c *core.Config) { c.ScaleDiv = 0 }, false},
			{func(c *core.Config) { c.ScaleDiv = -1 }, false},
			{func(c *core.Config) { c.ScaleDiv = math.MaxInt }, false}}},
		{"SampleEvery", []value{
			{func(c *core.Config) { c.SampleEvery = 0 }, false},
			{func(c *core.Config) { c.SampleEvery = maxCycle }, false}}},
		{"NoC.PortDepth", []value{
			{func(c *core.Config) { c.NoC.PortDepth = 0 }, false},
			{func(c *core.Config) { c.NoC.PortDepth = -1 }, false}}},
		{"NoC.HopLatency", []value{
			{func(c *core.Config) { c.NoC.HopLatency = 0 }, true},
			{func(c *core.Config) { c.NoC.HopLatency = maxCycle }, false}}},
		{"NoC.RespLatency", []value{
			{func(c *core.Config) { c.NoC.RespLatency = 0 }, true},
			{func(c *core.Config) { c.NoC.RespLatency = maxCycle }, false}}},
		{"NoC.AgingT", []value{
			{func(c *core.Config) { c.NoC.AgingT = 0 }, true},
			{func(c *core.Config) { c.NoC.AgingT = maxCycle }, false}}},
		{"QueueCaps", []value{
			{func(c *core.Config) { c.QueueCaps[txn.ClassDSP] = 0 }, false},
			{func(c *core.Config) { c.QueueCaps[txn.ClassDSP] = -1 }, false}}},
		{"DataRateMTps", []value{
			{func(c *core.Config) { c.DRAM.DataRateMTps = 0 }, false},
			{func(c *core.Config) { c.DRAM.DataRateMTps = -1 }, false},
			{func(c *core.Config) { c.DRAM.DataRateMTps = dram.MaxDataRateMTps + 1 }, false}}},
		{"LUTBounds", []value{
			{func(c *core.Config) { c.DMAs[0].LUTBounds = nil }, true},
			{func(c *core.Config) { c.DMAs[0].LUTBounds = []float64{1.5, 1.3, 1.2, 1.1, 1.05, 1.02, 0.95, 0} }, true},
			{func(c *core.Config) { c.DMAs[0].LUTBounds = []float64{0, 0.5, 1, 1.1, 1.2, 1.3, 1.4, 1.5} }, false},
			{func(c *core.Config) { c.DMAs[0].LUTBounds = []float64{1.2, 1.0, 0.7, 0} }, false},
			{func(c *core.Config) {
				c.DMAs[0].LUTBounds = []float64{2, 1.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1, 0.9, 0.8, 0.7, 0.6, 0}
			}, false}}},
		{"Window", []value{
			{func(c *core.Config) { c.DMAs[0].Window = 0 }, true},
			{func(c *core.Config) { c.DMAs[0].Window = -1 }, false}}},
		{"RateBps", []value{
			{func(c *core.Config) { c.DMAs[0].Source.RateBps *= 2 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.RateBps = -1 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.RateBps = math.Inf(1) }, false},
			{func(c *core.Config) { c.DMAs[0].Source.RateBps = math.NaN() }, false}}},
		{"ReadFrac", []value{
			{func(c *core.Config) { c.DMAs[0].Source.ReadFrac = 0 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.ReadFrac = 1 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.ReadFrac = -0.5 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.ReadFrac = 1.5 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.ReadFrac = math.NaN() }, false}}},
		{"Locality", []value{
			{func(c *core.Config) { c.DMAs[0].Source.Locality = 1 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.Locality = -1 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.Locality = 2 }, false}}},
		{"StartOffsetFrac", []value{
			{func(c *core.Config) { c.DMAs[0].Source.StartOffsetFrac = 1 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.StartOffsetFrac = -0.5 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.StartOffsetFrac = 3 }, false}}},
		{"BurstReqs", []value{
			{func(c *core.Config) { c.DMAs[0].Source.BurstReqs = 16 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.BurstReqs = -1 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.BurstReqs = math.MaxInt }, false}}},
		{"RefFactor", []value{
			{func(c *core.Config) { c.DMAs[0].Source.RefFactor = 0 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.RefFactor = 0.5 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.RefFactor = -1 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.RefFactor = math.Inf(1) }, false},
			{func(c *core.Config) { c.DMAs[0].Source.RefFactor = math.NaN() }, false}}},
		{"BufSeconds", []value{
			{func(c *core.Config) { c.DMAs[0].Source.BufSeconds = 1e-3 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.BufSeconds = -1 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.BufSeconds = 1 }, false},
			{func(c *core.Config) { c.DMAs[0].Source.BufSeconds = math.Inf(1) }, false},
			{func(c *core.Config) { c.DMAs[0].Source.BufSeconds = math.NaN() }, false}}},
		{"LatencyLimit", []value{
			{func(c *core.Config) { c.DMAs[0].Source.LatencyLimit = 0 }, true},
			{func(c *core.Config) { c.DMAs[0].Source.LatencyLimit = core.MaxHorizon }, true},
			{func(c *core.Config) { c.DMAs[0].Source.LatencyLimit = 1 << 63 }, false}}},
		{"ChunkPeriodFrac", []value{
			{func(c *core.Config) { chunkDMA(c).Source.ChunkPeriodFrac = 0 }, true},
			{func(c *core.Config) { chunkDMA(c).Source.ChunkPeriodFrac = 1 }, true},
			{func(c *core.Config) { chunkDMA(c).Source.ChunkPeriodFrac = 1e-9 }, false},
			{func(c *core.Config) { chunkDMA(c).Source.ChunkPeriodFrac = -0.25 }, false},
			{func(c *core.Config) { chunkDMA(c).Source.ChunkPeriodFrac = 1.5 }, false},
			{func(c *core.Config) { chunkDMA(c).Source.ChunkPeriodFrac = math.NaN() }, false}}},
		{"DeadlineFrac", []value{
			{func(c *core.Config) { chunkDMA(c).Source.DeadlineFrac = 0 }, true},
			{func(c *core.Config) { chunkDMA(c).Source.DeadlineFrac = 1 }, true},
			{func(c *core.Config) { chunkDMA(c).Source.DeadlineFrac = 1e-9 }, false},
			{func(c *core.Config) { chunkDMA(c).Source.DeadlineFrac = -1 }, false},
			{func(c *core.Config) { chunkDMA(c).Source.DeadlineFrac = 2 }, false}}},
		{"DMA", []value{
			{func(c *core.Config) { c.DMAs = append(c.DMAs, c.DMAs[0]) }, false},
			{func(c *core.Config) { c.DMAs[0].Source.Kind = core.SrcCPU + 1 }, false}}},
	}
	for _, r := range rows {
		for i, v := range r.values {
			cfg := fastCfg()
			v.set(&cfg)
			err := cfg.Validate()
			if v.ok != (err == nil) {
				t.Errorf("%s value %d: Validate = %v, want accepted %t", r.field, i, err, v.ok)
				continue
			}
			if err != nil && !strings.Contains(err.Error(), r.field) {
				t.Errorf("%s value %d: error %q does not name the field", r.field, i, err)
			}
			panicked := func() (p any) {
				defer func() { p = recover() }()
				core.Build(cfg).Run(2 * cfg.SampleEvery)
				return nil
			}()
			if (panicked != nil) == v.ok {
				t.Errorf("%s value %d: Build/Run panic %v, want one exactly when Validate refuses", r.field, i, panicked)
			}
		}
	}
}

// chunkDMA is c's first chunk source.
func chunkDMA(c *core.Config) *core.DMASpec {
	for i := range c.DMAs {
		if c.DMAs[i].Source.Kind == core.SrcChunk {
			return &c.DMAs[i]
		}
	}
	panic("no chunk source")
}

// TestFrameCyclesBoundsTheHorizon: frame counts whose cycles exceed
// MaxHorizon are refused, the largest that fits is accepted.
func TestFrameCyclesBoundsTheHorizon(t *testing.T) {
	cfg := fastCfg()
	fp := cfg.FramePeriod()
	fit := int(core.MaxHorizon / fp)
	if n, err := cfg.FrameCycles(fit); err != nil || n != sim.Cycle(fit)*fp {
		t.Fatalf("FrameCycles(%d) = %d, %v; want %d", fit, n, err, sim.Cycle(fit)*fp)
	}
	for _, k := range []int{fit + 1, math.MaxInt, -1} {
		if _, err := cfg.FrameCycles(k); err == nil {
			t.Errorf("FrameCycles(%d) accepted", k)
		}
	}
}
