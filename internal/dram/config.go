// Package dram implements a cycle-accurate LPDDR4 DRAM model in the spirit
// of DRAMSim2: channels, ranks and banks with open-page row buffers, the
// full set of inter-command timing constraints from the paper's Table 1
// (CL, tRCD, tRP, tWTR, tRTP, tWR, tRRD, tFAW), per-rank all-bank refresh
// (tREFI, tRFC, the JEDEC 8-deep postponement/pull-in window), a shared
// data bus per channel, and row-hit/miss/conflict accounting.
//
// The model is passive: it exposes CanActivate/CanRead/CanRefresh/...
// predicates and the corresponding command issuers, and the memory
// controller drives it one command per channel per cycle. All state is
// expressed as "earliest cycle at which X may happen" timestamps — a REF,
// for example, simply pushes every activate gate of its rank past the
// tRFC blackout — so no per-cycle bookkeeping is needed inside the DRAM
// itself.
package dram

import (
	"fmt"

	"sara/internal/sim"
)

// Timing holds the inter-command constraints in command-clock cycles.
// Field names follow JEDEC convention.
type Timing struct {
	CL   sim.Cycle // read CAS latency (command to first data beat)
	CWL  sim.Cycle // write CAS latency
	TRCD sim.Cycle // activate to CAS
	TRP  sim.Cycle // precharge to activate
	TRAS sim.Cycle // activate to precharge (minimum row-open time)
	TWTR sim.Cycle // write data end to read command (same rank)
	TRTP sim.Cycle // read command to precharge
	TWR  sim.Cycle // write data end to precharge (write recovery)
	TRRD sim.Cycle // activate to activate, different banks, same rank
	TFAW sim.Cycle // window containing at most four activates per rank
	TCCD sim.Cycle // CAS to CAS, same channel (burst gap)
	BL   int       // burst length in beats (data beats per CAS)
}

// PaperTiming returns the LPDDR4 timing set from Table 1 of the paper:
// CL-tRCD-tRP = 36-34-34, tWTR-tRTP-tWR = 19-14-34, tRRD-tFAW = 19-75.
// Values not listed in the table (CWL, tRAS, tCCD) use LPDDR4-typical
// derivations.
func PaperTiming() Timing {
	return Timing{
		CL:   36,
		CWL:  18, // LPDDR4 write latency is roughly half the read latency
		TRCD: 34,
		TRP:  34,
		TRAS: 48, // tRCD + data window; Table 1 omits tRAS
		TWTR: 19,
		TRTP: 14,
		TWR:  34,
		TRRD: 19,
		TFAW: 75,
		TCCD: 8, // BL/2 on the command clock: back-to-back bursts
		BL:   16,
	}
}

// BurstCycles reports how many command-clock cycles one burst occupies the
// data bus (BL beats at two beats per clock).
func (t Timing) BurstCycles() sim.Cycle { return sim.Cycle(t.BL / 2) }

// RefreshConfig parameterizes per-rank all-bank refresh (REFab). The zero
// value disables refresh entirely, preserving the refresh-free model.
type RefreshConfig struct {
	// Enabled turns refresh modeling on.
	Enabled bool
	// TREFI is the average refresh interval in command-clock cycles: one
	// refresh becomes owed per rank every TREFI cycles.
	TREFI sim.Cycle
	// TRFC is the refresh cycle time: after a REF issues, the rank accepts
	// no command for TRFC cycles (the blackout).
	TRFC sim.Cycle
	// Window is the JEDEC postponement/pull-in depth: at most Window
	// refreshes may be postponed past their tREFI slots, and at most
	// Window may be banked in advance (LPDDR4: 8).
	Window int
}

// Validate reports an error for non-physical refresh settings.
func (r RefreshConfig) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.TREFI == 0 || r.TRFC == 0 {
		return fmt.Errorf("dram: refresh enabled with tREFI=%d tRFC=%d; both must be non-zero", r.TREFI, r.TRFC)
	}
	if r.TRFC >= r.TREFI {
		return fmt.Errorf("dram: tRFC (%d) must be below tREFI (%d)", r.TRFC, r.TREFI)
	}
	if r.Window < 1 {
		return fmt.Errorf("dram: refresh window %d must be at least 1", r.Window)
	}
	return nil
}

// Validate reports an error for non-physical settings.
func (t Timing) Validate() error {
	if t.BL <= 0 || t.BL%2 != 0 {
		return fmt.Errorf("dram: burst length %d must be positive and even", t.BL)
	}
	if t.CL == 0 || t.TRCD == 0 || t.TRP == 0 {
		return fmt.Errorf("dram: CL/tRCD/tRP must be non-zero")
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("dram: tRAS (%d) below tRCD (%d)", t.TRAS, t.TRCD)
	}
	if t.TFAW < t.TRRD {
		return fmt.Errorf("dram: tFAW (%d) below tRRD (%d)", t.TFAW, t.TRRD)
	}
	return nil
}

// Geometry describes the channel/rank/bank organization and the address
// layout of the device.
type Geometry struct {
	Channels int // independent channels, each with its own bus and MC
	Ranks    int // ranks per channel
	Banks    int // banks per rank
	RowBytes int // bytes per row (row-buffer size)
	BusBytes int // data-bus width in bytes
}

// PaperGeometry returns Table 1's organization: 2 channels, 2 ranks,
// 8 banks, with a 2 KiB row buffer and an 8-byte bus (two byte-mode x32
// LPDDR4 die pairs per channel).
func PaperGeometry() Geometry {
	return Geometry{Channels: 2, Ranks: 2, Banks: 8, RowBytes: 2048, BusBytes: 8}
}

// BurstBytes reports the bytes moved by one CAS command.
func (g Geometry) BurstBytes(t Timing) int { return g.BusBytes * t.BL }

// Validate reports an error for non-physical settings.
func (g Geometry) Validate(t Timing) error {
	if g.Channels <= 0 || g.Ranks <= 0 || g.Banks <= 0 {
		return fmt.Errorf("dram: channels/ranks/banks must be positive")
	}
	if g.RowBytes <= 0 || g.BusBytes <= 0 {
		return fmt.Errorf("dram: row and bus sizes must be positive")
	}
	bb := g.BurstBytes(t)
	if g.RowBytes%bb != 0 {
		return fmt.Errorf("dram: row size %d not a multiple of burst size %d", g.RowBytes, bb)
	}
	for _, v := range []int{g.Channels, g.Ranks, g.Banks, g.RowBytes, g.BusBytes} {
		if v&(v-1) != 0 {
			return fmt.Errorf("dram: geometry values must be powers of two, got %d", v)
		}
	}
	return nil
}

// Config bundles everything needed to build a DRAM instance.
type Config struct {
	Timing   Timing
	Geometry Geometry
	// DataRateMTps is the I/O data rate in mega-transfers per second
	// (e.g. 1866; 1..MaxDataRateMTps). The command clock runs at half that
	// rate, and one simulator cycle equals one command-clock cycle.
	DataRateMTps int
	// Refresh models per-rank all-bank refresh; the zero value disables it.
	Refresh RefreshConfig
}

// MaxDataRateMTps bounds DataRateMTps, two orders of magnitude above any
// LPDDR generation, so every seconds-to-cycles conversion stays exact.
const MaxDataRateMTps = 1 << 20

// PaperConfig returns the Table 1 configuration at the given data rate.
func PaperConfig(mtps int) Config {
	return Config{Timing: PaperTiming(), Geometry: PaperGeometry(), DataRateMTps: mtps}
}

// ClockHz reports the command-clock frequency in hertz.
func (c Config) ClockHz() float64 { return float64(c.DataRateMTps) / 2 * 1e6 }

// DefaultRefresh returns JEDEC LPDDR4 all-bank refresh timing for an 8 Gb
// die at this configuration's command clock — tREFI = 3.904 us, tRFCab =
// 280 ns — with the standard 8-deep postponement/pull-in window.
func (c Config) DefaultRefresh() RefreshConfig {
	return RefreshConfig{
		Enabled: true,
		TREFI:   c.CyclesFromSeconds(3.904e-6),
		TRFC:    c.CyclesFromSeconds(280e-9),
		Window:  8,
	}
}

// BytesPerCycle converts a real-time rate in bytes/second into the
// bytes-per-command-clock-cycle the simulator works in.
func (c Config) BytesPerCycle(bytesPerSecond float64) float64 {
	return bytesPerSecond / c.ClockHz()
}

// CyclesFromSeconds converts wall-clock seconds into command-clock cycles.
func (c Config) CyclesFromSeconds(s float64) sim.Cycle {
	return sim.Cycle(s * c.ClockHz())
}

// PeakBandwidthGBps reports the theoretical peak across all channels.
func (c Config) PeakBandwidthGBps() float64 {
	bytesPerSec := float64(c.DataRateMTps) * 1e6 * float64(c.Geometry.BusBytes) * float64(c.Geometry.Channels)
	return bytesPerSec / 1e9
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(c.Timing); err != nil {
		return err
	}
	if c.DataRateMTps < 1 || c.DataRateMTps > MaxDataRateMTps {
		return fmt.Errorf("dram: DataRateMTps %d: want 1..%d", c.DataRateMTps, MaxDataRateMTps)
	}
	if err := c.Refresh.Validate(); err != nil {
		return err
	}
	return nil
}
