package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sara/internal/stats"
)

// Report is the serialized outcome of one analyzed run: windowed
// stats.Series for the system roll-up, every router (with per-port
// buffer-occupancy series), every DMA engine and every DRAM channel, plus
// per-router grant and full-pop totals. All series share the same sample
// cycles, so any subset can go straight through stats.WriteCSV.
type Report struct {
	Window  uint64 `json:"window_cycles"`
	Samples int    `json:"samples"`

	System   SystemReport     `json:"system"`
	Routers  []*RouterReport  `json:"routers"`
	Engines  []*EngineReport  `json:"engines"`
	Channels []*ChannelReport `json:"channels"`
}

// SystemReport is the run-wide roll-up: worst-core NPI, DRAM bandwidth,
// refresh-blackout duty, mean router stall fraction, backpressure event
// rate, and the refresh/contention split of the NPI shortfall
// (meter.StallAttribution applied per window).
type SystemReport struct {
	WorstNPI        *stats.Series `json:"worst_npi"`
	BandwidthGBps   *stats.Series `json:"bandwidth_gbps"`
	BlackoutDuty    *stats.Series `json:"blackout_duty"`
	NoCStallFrac    *stats.Series `json:"noc_stall_frac"`
	Backpressure    *stats.Series `json:"backpressure"`
	RefreshShare    *stats.Series `json:"refresh_share"`
	ContentionShare *stats.Series `json:"contention_share"`
}

// RouterReport is one router's windowed view. Backpressure counts
// full-FIFO pops (pops that returned a credit upstream) per cycle;
// occupancy series are instantaneous samples at the window boundary.
// Grants and FullPops total the closed windows.
type RouterReport struct {
	Name         string          `json:"name"`
	StallFrac    *stats.Series   `json:"stall_frac"`
	GrantRate    *stats.Series   `json:"grant_rate"`
	Backpressure *stats.Series   `json:"backpressure"`
	Occupancy    *stats.Series   `json:"occupancy"`
	Ports        []*stats.Series `json:"ports"`
	Grants       uint64          `json:"grants,omitempty"`
	FullPops     uint64          `json:"full_pops,omitempty"`
}

// EngineReport is one DMA engine's windowed view.
type EngineReport struct {
	Label            string        `json:"label"`
	NPI              *stats.Series `json:"npi,omitempty"`
	InjectRate       *stats.Series `json:"inject_rate"`
	InjectStallFrac  *stats.Series `json:"inject_stall_frac"`
	PendingOccupancy *stats.Series `json:"pending_occupancy"`
}

// ChannelReport is one DRAM channel's windowed view.
type ChannelReport struct {
	Channel      int           `json:"channel"`
	BlackoutDuty *stats.Series `json:"blackout_duty"`
	CASRate      *stats.Series `json:"cas_rate"`
}

// Report assembles the accumulated windows into a serializable Report.
// Call it after the run; the final partial window is not closed.
func (a *Analyzer) Report() *Report {
	rep := &Report{
		Window:  uint64(a.window),
		Samples: a.samples,
		System: SystemReport{
			WorstNPI:        a.worstNPI,
			BandwidthGBps:   a.bandwidth,
			BlackoutDuty:    a.blackout,
			NoCStallFrac:    a.stallFrac,
			Backpressure:    a.backpressure,
			RefreshShare:    a.refreshShare,
			ContentionShare: a.contentionShare,
		},
	}
	for _, p := range a.routers {
		rep.Routers = append(rep.Routers, &RouterReport{
			Name:         p.name,
			StallFrac:    p.stallFrac,
			GrantRate:    p.grantRate,
			Backpressure: p.backpressure,
			Occupancy:    p.occupancy,
			Ports:        p.ports,
			Grants:       p.totGrants,
			FullPops:     p.totFullPops,
		})
	}
	for _, e := range a.engines {
		rep.Engines = append(rep.Engines, &EngineReport{
			Label:            e.u.Label(),
			NPI:              e.npi,
			InjectRate:       e.injectRate,
			InjectStallFrac:  e.stallFrac,
			PendingOccupancy: e.pendingOcc,
		})
	}
	for _, c := range a.channels {
		rep.Channels = append(rep.Channels, &ChannelReport{
			Channel:      c.ch,
			BlackoutDuty: c.blackout,
			CASRate:      c.casRate,
		})
	}
	return rep
}

// WriteCSV writes the report's system-level series side by side (cycle,
// worst_npi, bandwidth_gbps, blackout_duty, noc_stall_frac, backpressure,
// refresh_share, contention_share).
func (r *Report) WriteCSV(w io.Writer) error {
	s := r.System
	return stats.WriteCSV(w, s.WorstNPI, s.BandwidthGBps, s.BlackoutDuty,
		s.NoCStallFrac, s.Backpressure, s.RefreshShare, s.ContentionShare)
}

// WriteReportsJSON writes the labeled reports as one indented JSON object
// keyed by run label.
func WriteReportsJSON(w io.Writer, reports map[string]*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// WriteReportsCSV writes each labeled report's system-level CSV in label
// order, separated by `# <label>` comment lines so a sweep's runs land in
// one file without losing their identity.
func WriteReportsCSV(w io.Writer, reports map[string]*Report) error {
	labels := make([]string, 0, len(reports))
	for l := range reports {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if _, err := fmt.Fprintf(w, "# %s\n", l); err != nil {
			return err
		}
		if err := reports[l].WriteCSV(w); err != nil {
			return fmt.Errorf("analysis: report %q: %w", l, err)
		}
	}
	return nil
}
