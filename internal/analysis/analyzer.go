// Package analysis is the always-available observability layer over a
// running simulation: per-port and per-buffer occupancy/backpressure
// analyzers plus a REF/contention stall-attribution aggregator, in the
// style of akita's buffer/port analyzers and monitoring service. An
// Analyzer attaches to an assembled core.System, samples it on a fixed
// window from a recurring kernel event (settling batched dormant-cycle
// accounting first, so windowed numbers are exact even for components the
// active-ticker list never ticked), and aggregates everything into
// stats.Series for JSON/CSV export and the live HTTP Monitor.
//
// Every windowed number is the difference of two readings of a counter
// the components keep anyway: router grant, stall and full-FIFO-pop
// totals, engine stats, DRAM channel stats, meter NPIs. The analyzer
// installs no trace probe and runs no code on the simulation's hot paths,
// so attaching one cannot change simulated behavior, and analyzers on
// many systems run in parallel.
package analysis

import (
	"strconv"

	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/meter"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/stats"
)

// Options configures an Analyzer.
type Options struct {
	// Window is the aggregation period in cycles; 0 picks four NPI
	// sampling periods (4 × Config.SampleEvery).
	Window sim.Cycle
	// Publish, when non-nil, receives a live Snapshot at every window
	// boundary (the HTTP monitor's feed).
	Publish func(Snapshot)
}

// Analyzer aggregates windowed observability statistics for one System.
type Analyzer struct {
	sys     *core.System
	window  sim.Cycle
	publish func(Snapshot)
	closed  bool

	routers   []*routerProbe
	engines   []*engineProbe
	channels  []*channelProbe
	lastDRAM  dram.Stats
	lastCycle sim.Cycle
	samples   int

	// system-level windowed series (all sampled at the same cycles)
	worstNPI        *stats.Series
	bandwidth       *stats.Series
	blackout        *stats.Series
	stallFrac       *stats.Series
	backpressure    *stats.Series
	refreshShare    *stats.Series
	contentionShare *stats.Series
}

type routerProbe struct {
	r    *noc.Router
	name string

	// cursors into the router's settled totals at the last sample
	lastStalls, lastForwarded, lastFullPops uint64
	// grants and full pops over all closed windows
	totGrants, totFullPops uint64

	stallFrac    *stats.Series
	grantRate    *stats.Series
	backpressure *stats.Series
	occupancy    *stats.Series   // mean port occupancy
	ports        []*stats.Series // per-port (per-buffer) occupancy
}

type engineProbe struct {
	u    *core.Unit
	last dma.Stats

	npi        *stats.Series
	injectRate *stats.Series
	stallFrac  *stats.Series // inject-stall cycles per window cycle
	pendingOcc *stats.Series // pending-queue occupancy
}

type channelProbe struct {
	ch       int
	blackout *stats.Series
	casRate  *stats.Series
}

// Attach builds an Analyzer over sys and schedules its windowed sampler
// on the system's kernel. Attach before running; the sampler fires every
// opt.Window cycles from the current clock. Call Detach when done.
func Attach(sys *core.System, opt Options) *Analyzer {
	w := opt.Window
	if w == 0 {
		w = 4 * sys.Config().SampleEvery
	}
	if w == 0 {
		w = 4096
	}
	a := &Analyzer{
		sys:     sys,
		window:  w,
		publish: opt.Publish,

		worstNPI:        &stats.Series{Name: "worst_npi"},
		bandwidth:       &stats.Series{Name: "bandwidth_gbps"},
		blackout:        &stats.Series{Name: "blackout_duty"},
		stallFrac:       &stats.Series{Name: "noc_stall_frac"},
		backpressure:    &stats.Series{Name: "backpressure"},
		refreshShare:    &stats.Series{Name: "refresh_share"},
		contentionShare: &stats.Series{Name: "contention_share"},
	}
	for _, r := range sys.Routers() {
		p := &routerProbe{
			r:    r,
			name: r.Name(),

			lastStalls:    r.Stalls(),
			lastForwarded: r.Forwarded(),
			lastFullPops:  r.FullPops(),
			stallFrac:     &stats.Series{Name: r.Name() + ".stall_frac"},
			grantRate:     &stats.Series{Name: r.Name() + ".grant_rate"},
			backpressure:  &stats.Series{Name: r.Name() + ".backpressure"},
			occupancy:     &stats.Series{Name: r.Name() + ".occupancy"},
		}
		for i := 0; i < r.NPorts(); i++ {
			p.ports = append(p.ports, &stats.Series{Name: r.Name() + ".port" + itoa(i) + ".occupancy"})
		}
		a.routers = append(a.routers, p)
	}
	for _, u := range sys.Units() {
		e := &engineProbe{
			u:          u,
			last:       u.Engine.Stats(),
			injectRate: &stats.Series{Name: u.Label() + ".inject_rate"},
			stallFrac:  &stats.Series{Name: u.Label() + ".inject_stall_frac"},
			pendingOcc: &stats.Series{Name: u.Label() + ".pending_occupancy"},
		}
		// The CPU cluster has no QoS meter; its probe reports rates only.
		if u.Meter != nil {
			e.npi = &stats.Series{Name: u.Label() + ".npi"}
		}
		a.engines = append(a.engines, e)
	}
	for ch := 0; ch < sys.Config().DRAM.Geometry.Channels; ch++ {
		a.channels = append(a.channels, &channelProbe{
			ch:       ch,
			blackout: &stats.Series{Name: "ch" + itoa(ch) + ".blackout_duty"},
			casRate:  &stats.Series{Name: "ch" + itoa(ch) + ".cas_rate"},
		})
	}
	a.lastDRAM = sys.DRAMStats()
	a.lastCycle = sys.Now()

	sys.Kernel().Every(a.window, a.sample)
	return a
}

// Detach stops the analyzer: the windowed sampler event keeps firing but
// becomes a no-op. Detach once the run is over.
func (a *Analyzer) Detach() { a.closed = true }

// Window reports the aggregation period.
func (a *Analyzer) Window() sim.Cycle { return a.window }

// Samples reports how many windows have been aggregated so far.
func (a *Analyzer) Samples() int { return a.samples }

// sample closes the current window at cycle now: settle batched
// accounting, append one point to every series, advance the counter
// cursors, and feed the publisher. It runs as a kernel event, before any
// ticker of cycle now.
func (a *Analyzer) sample(now sim.Cycle) {
	if a.closed || now == a.lastCycle {
		return
	}
	a.sys.Kernel().Settle()
	win := float64(now - a.lastCycle)

	// NoC routers: stall fraction, grant rate and backpressure (pops of a
	// full FIFO) from settled counters, occupancy sampled instantaneously.
	var sumStall, sumFull float64
	for _, p := range a.routers {
		stalls, fwd, full := p.r.Stalls(), p.r.Forwarded(), p.r.FullPops()
		grants, fullPops := fwd-p.lastForwarded, full-p.lastFullPops
		sf := float64(stalls-p.lastStalls) / win
		bp := float64(fullPops) / win
		p.lastStalls, p.lastForwarded, p.lastFullPops = stalls, fwd, full
		p.totGrants += grants
		p.totFullPops += fullPops
		var occ float64
		for i, s := range p.ports {
			po := p.r.Port(i)
			o := float64(po.Len()) / float64(po.Depth())
			s.Append(now, o)
			occ += o
		}
		occ /= float64(len(p.ports))
		p.stallFrac.Append(now, sf)
		p.grantRate.Append(now, float64(grants)/win)
		p.backpressure.Append(now, bp)
		p.occupancy.Append(now, occ)
		sumStall += sf
		sumFull += bp
	}

	// DMA engines: NPI from the meters, rates from settled engine stats.
	worst, haveNPI := 0.0, false
	for _, e := range a.engines {
		st := e.u.Engine.Stats()
		if e.npi != nil {
			npi := e.u.Meter.NPI(now)
			if !haveNPI || npi < worst {
				worst, haveNPI = npi, true
			}
			e.npi.Append(now, npi)
		}
		e.injectRate.Append(now, float64(st.Injected-e.last.Injected)/win)
		e.stallFrac.Append(now, float64(st.InjectStalls-e.last.InjectStalls)/win)
		depth := e.u.Engine.Pending() + e.u.Engine.PendingSpace()
		e.pendingOcc.Append(now, float64(e.u.Engine.Pending())/float64(depth))
		e.last = st
	}

	// DRAM channels: CAS rate and refresh blackout per window.
	cfg := a.sys.Config().DRAM
	cur := a.sys.DRAMStats()
	trfc := float64(cfg.Refresh.TRFC)
	var refTot uint64
	for ch, c := range a.channels {
		cs, last := cur.Channels[ch], a.lastDRAM.Channels[ch]
		refs := cs.Refreshes - last.Refreshes
		cas := cs.ReadBursts + cs.WriteBursts - last.ReadBursts - last.WriteBursts
		refTot += refs
		c.blackout.Append(now, float64(refs)*trfc/(win*float64(cfg.Geometry.Ranks)))
		c.casRate.Append(now, float64(cas)/win)
	}

	// System roll-up and stall attribution.
	bw := dram.BandwidthOverWindowOf(cfg, a.lastDRAM, cur, a.lastCycle, now)
	duty := float64(refTot) * trfc / (win * float64(cfg.Geometry.Channels*cfg.Geometry.Ranks))
	nocStall := sumStall / float64(len(a.routers))
	refresh, contention := meter.StallAttribution(worst, duty)
	a.worstNPI.Append(now, worst)
	a.bandwidth.Append(now, bw)
	a.blackout.Append(now, duty)
	a.stallFrac.Append(now, nocStall)
	a.backpressure.Append(now, sumFull)
	a.refreshShare.Append(now, refresh)
	a.contentionShare.Append(now, contention)

	a.lastDRAM = cur
	a.lastCycle = now
	a.samples++

	if a.publish != nil {
		a.publish(a.snapshot(now, worst, bw, duty, nocStall, sumFull))
	}
}

// snapshot assembles the live view the monitor serves. It allocates, so
// it only runs when a publisher is installed.
func (a *Analyzer) snapshot(now sim.Cycle, worst, bw, duty, stall, bp float64) Snapshot {
	s := Snapshot{
		Cycle:         now,
		Samples:       a.samples,
		WorstNPI:      worst,
		BandwidthGBps: bw,
		BlackoutDuty:  duty,
		NoCStallFrac:  stall,
		Backpressure:  bp,
		NPI:           make(map[string]float64, len(a.engines)),
		RouterStall:   make(map[string]float64, len(a.routers)),
	}
	for _, e := range a.engines {
		if e.npi != nil {
			s.NPI[e.u.Label()] = e.npi.Values[len(e.npi.Values)-1]
		}
	}
	for _, p := range a.routers {
		s.RouterStall[p.name] = p.stallFrac.Values[len(p.stallFrac.Values)-1]
	}
	return s
}

func itoa(n int) string { return strconv.Itoa(n) }
