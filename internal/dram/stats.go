package dram

import "sara/internal/sim"

// ChannelStats is a snapshot of one channel's activity counters.
type ChannelStats struct {
	ReadBursts  uint64
	WriteBursts uint64
	BytesMoved  uint64
	Activates   uint64
	Precharges  uint64
	Refreshes   uint64
}

// Stats aggregates counters across channels.
type Stats struct {
	Channels []ChannelStats
}

// Totals sums the per-channel counters.
func (s Stats) Totals() ChannelStats {
	var t ChannelStats
	for _, c := range s.Channels {
		t.ReadBursts += c.ReadBursts
		t.WriteBursts += c.WriteBursts
		t.BytesMoved += c.BytesMoved
		t.Activates += c.Activates
		t.Precharges += c.Precharges
		t.Refreshes += c.Refreshes
	}
	return t
}

// MergeStats sums snapshots elementwise per channel. The domain-parallel
// System keeps one full-geometry DRAM instance per domain with only the
// domain's own channel attached — every other channel's row is zero — so
// the elementwise sum over domains reconstructs the whole device's
// per-channel counters exactly.
func MergeStats(parts ...Stats) Stats {
	var out Stats
	for _, p := range parts {
		if len(p.Channels) > len(out.Channels) {
			grown := make([]ChannelStats, len(p.Channels))
			copy(grown, out.Channels)
			out.Channels = grown
		}
		for i, c := range p.Channels {
			o := &out.Channels[i]
			o.ReadBursts += c.ReadBursts
			o.WriteBursts += c.WriteBursts
			o.BytesMoved += c.BytesMoved
			o.Activates += c.Activates
			o.Precharges += c.Precharges
			o.Refreshes += c.Refreshes
		}
	}
	return out
}

// RowHitRate reports the fraction of CAS commands in the snapshot that
// did not require a fresh activate: 1 - activates/(reads+writes). It is
// an aggregate measure of row-buffer locality actually exploited.
func (s Stats) RowHitRate() float64 {
	t := s.Totals()
	cas := t.ReadBursts + t.WriteBursts
	if cas == 0 {
		return 0
	}
	hits := float64(cas) - float64(t.Activates)
	if hits < 0 {
		hits = 0
	}
	return hits / float64(cas)
}

// AverageBandwidthOf reports the snapshot's total bytes moved divided by
// the elapsed simulated time up to cycle now, in GB/s, under cfg's clock.
func AverageBandwidthOf(cfg Config, s Stats, now sim.Cycle) float64 {
	if now == 0 {
		return 0
	}
	seconds := float64(now) / cfg.ClockHz()
	return float64(s.Totals().BytesMoved) / seconds / 1e9
}

// RefreshDutyOf reports the fraction of rank-cycles up to now that the
// snapshot's refreshes spent in a tRFC blackout — the bandwidth ceiling
// the refresh cadence steals from every scheduling policy. It is zero
// when refresh is disabled in cfg.
func RefreshDutyOf(cfg Config, s Stats, now sim.Cycle) float64 {
	if now == 0 || !cfg.Refresh.Enabled {
		return 0
	}
	refs := s.Totals().Refreshes
	rankCycles := float64(now) * float64(cfg.Geometry.Channels*cfg.Geometry.Ranks)
	return float64(refs) * float64(cfg.Refresh.TRFC) / rankCycles
}

// BandwidthOverWindowOf reports bytes moved between two snapshots divided
// by the window length, in GB/s, under cfg's clock. Use it to exclude
// warmup.
func BandwidthOverWindowOf(cfg Config, before, after Stats, from, to sim.Cycle) float64 {
	if to <= from {
		return 0
	}
	moved := after.Totals().BytesMoved - before.Totals().BytesMoved
	seconds := float64(to-from) / cfg.ClockHz()
	return float64(moved) / seconds / 1e9
}

// Stats returns a snapshot of all channel counters.
func (d *DRAM) Stats() Stats {
	return Stats{Channels: append([]ChannelStats(nil), d.counts...)}
}

// RowHitRate reports the device-wide row hit rate (see Stats.RowHitRate).
func (d *DRAM) RowHitRate() float64 { return d.Stats().RowHitRate() }

// AverageBandwidthGBps reports total bytes moved divided by the elapsed
// simulated time up to cycle now, in GB/s.
func (d *DRAM) AverageBandwidthGBps(now sim.Cycle) float64 {
	return AverageBandwidthOf(d.cfg, d.Stats(), now)
}

// RefreshDuty reports the fraction of rank-cycles up to now spent in a
// tRFC blackout (see RefreshDutyOf).
func (d *DRAM) RefreshDuty(now sim.Cycle) float64 {
	return RefreshDutyOf(d.cfg, d.Stats(), now)
}

// BandwidthOverWindowGBps reports bytes moved between two stats snapshots
// divided by the window length, in GB/s (see BandwidthOverWindowOf).
func (d *DRAM) BandwidthOverWindowGBps(before Stats, from, to sim.Cycle) float64 {
	return BandwidthOverWindowOf(d.cfg, before, d.Stats(), from, to)
}
