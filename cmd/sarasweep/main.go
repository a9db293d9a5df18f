// Command sarasweep runs the design-space sweeps listed in README's
// "Regenerating the figures" section: the ablations of Policy 2's
// row-buffer threshold delta, the priority quantization k and the aging
// limit T, the refresh on/off comparison, a seed fan-out with confidence
// intervals, the scaled-SoC cost curve — and "cell", the single-run
// inspector that every supervisor Repro line names (README, "Crash
// safety & resume").
//
//	sarasweep -sweep delta
//	sarasweep -sweep bits
//	sarasweep -sweep aging
//	sarasweep -sweep refresh
//	sarasweep -sweep seeds
//	sarasweep -sweep scale
//	sarasweep -sweep cell -case A -policy qos -seed 3 [-measure 2] [-csv npi.csv]
//
// The cell sweep prints each critical core's minimum NPI over the
// measured frames, the DRAM bandwidth and row-hit rate and, with
// refresh on, each below-target core's refresh/contention shortfall;
// -csv dumps the per-DMA NPI time series. The ablations read -seed and
// (but for the refresh sweep) -refresh. A flag the chosen sweep does
// not read is a usage error.
//
// Crash safety: -timeout and -max-cycles bound each run with the kernel
// watchdog (a tripped run reports a DeadlockError with its wake-state
// dump instead of spinning); -journal appends completed cells of the
// seeds and cell sweeps to a JSONL checkpoint, and -resume serves
// journaled cells from it, so an interrupted fan-out picks up where it
// died. All four are zero-cost when left at their defaults.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"sara"
	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/dram"
	"sara/internal/exp"
	"sara/internal/memctrl"
	"sara/internal/meter"
	"sara/internal/txn"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// invocation is one command line: its parsed run flags, and the
// analyzer the ablation sweeps attach to each system they build. The
// RunCells-backed sweeps (seeds, cell) get their analyzers from
// exp.Options and only file reports; the ablations build one system at a
// time, and attach closes the previous system's analyzer and files its
// report first.
type invocation struct {
	*exp.Flags
	sweep string // the -sweep value, the prefix of ablation report labels
	seq   int

	az    *sara.Analyzer
	h     *sara.MonitorRun
	label string
}

// attach closes the previous system's analyzer and arms one on sys.
func (o *invocation) attach(sys *core.System) {
	if !o.Opt.Analyze && o.Opt.Monitor == nil {
		return
	}
	o.detach()
	o.label = fmt.Sprintf("%s#%d", o.sweep, o.seq)
	o.seq++
	o.h = o.Opt.Monitor.StartRun(o.label)
	aopt := sara.AnalysisOptions{Window: sara.Cycle(o.Opt.AnalysisWindow)}
	if o.h != nil {
		aopt.Publish = o.h.Publish
	}
	o.az = sara.AttachAnalyzer(sys, aopt)
}

// detach detaches the live analyzer, filing its report.
func (o *invocation) detach() {
	if o.az == nil {
		return
	}
	o.az.Detach()
	if o.Opt.Analyze {
		o.Report(o.label, o.az.Report())
	}
	o.h.Finish(true)
	o.az, o.h = nil, nil
}

// ablation is what the direct-build sweeps read: no supervisor journal
// or retry, no cell field, and one warmup and one measured frame of
// their own.
const ablation = exp.BaseFlags | exp.SeedFlag | exp.RefreshFlag

// sweeps is the dispatch table, with the flags each sweep reads; -sweep
// is validated against it up front.
var sweeps = map[string]struct {
	run   func(o *invocation, w io.Writer) error
	reads exp.FlagGroup
}{
	"delta":   {sweepDelta, ablation},
	"bits":    {sweepBits, ablation},
	"aging":   {sweepAging, ablation},
	"refresh": {sweepRefresh, ablation &^ exp.RefreshFlag},
	"seeds":   {sweepSeeds, exp.RunFlags&^exp.SeedFlag | exp.FrameFlags},
	"scale":   {sweepScale, ablation},
	"cell":    {sweepCell, exp.RunFlags | exp.CellFlags},
}

// sweepNames lists the valid -sweep values for the usage text.
func sweepNames() string {
	return strings.Join(slices.Sorted(maps.Keys(sweeps)), "|")
}

// run is main without the process plumbing, so tests can drive the CLI
// and assert output and exit codes. 0 = success, 1 = a run failed,
// 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sarasweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sweep := fs.String("sweep", "delta", "sweep to run: "+sweepNames())
	o := &invocation{Flags: exp.BindFlags(fs, exp.RunFlags|exp.CellFlags)}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sw, ok := sweeps[*sweep]
	if !ok {
		fmt.Fprintf(stderr, "sarasweep: unknown sweep %q (want %s)\n", *sweep, sweepNames())
		fs.Usage()
		return 2
	}
	o.sweep = *sweep
	// Refuse bad values before any build. Every sweep but the cell
	// sweep runs case A, so its frame period is the one to check.
	check := exp.Cell{Case: config.CaseA}
	if *sweep == "cell" {
		check = o.Cell
	}
	if err := o.Check(sw.reads, "-sweep "+*sweep, check); err != nil {
		fmt.Fprintf(stderr, "sarasweep: %v\n", err)
		return 2
	}
	stop, err := o.Start(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "sarasweep: %v\n", err)
		return 2
	}
	defer stop()
	err = sw.run(o, stdout)
	o.detach()
	if err == nil {
		err = o.WriteReports(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sarasweep: %v\n", err)
		return 1
	}
	return 0
}

// window is one ablation run's measured frame: the system after it, where
// it began (cycle and DRAM counters), and the host time it took.
type window struct {
	sys     *core.System
	from    sara.Cycle
	before  dram.Stats
	elapsed time.Duration
}

// run builds cfg's system with the -timeout / -max-cycles budgets armed
// (no watchdog when neither is set) and, under -analyze / -monitor, an
// analyzer attached; then runs one warmup frame to reach steady state and
// one measured frame.
func (o *invocation) run(cfg core.Config) (m window, err error) {
	m.sys = sara.Build(cfg)
	if wd := o.Opt.Watchdog(); wd != nil {
		m.sys.SetWatchdog(wd)
	}
	o.attach(m.sys)
	if err = m.sys.RunFramesChecked(1); err != nil {
		return m, err
	}
	m.from, m.before = m.sys.Now(), m.sys.DRAMStats()
	start := time.Now() //sara:wallclock host-throughput measurement (ns per simulated cycle)
	err = m.sys.RunFramesChecked(1)
	m.elapsed = time.Since(start)
	return m, err
}

// bandwidth is the DRAM bandwidth over the measured frame.
func (m window) bandwidth() float64 {
	return m.sys.BandwidthOverWindowGBps(m.before, m.from, m.sys.Now())
}

// worstNPI is the scalar the ablation tables report: the minimum of the
// per-core minimum NPI over the measured frame.
func (m window) worstNPI() float64 {
	worst := 1e9
	for _, v := range m.sys.MinNPIByCore(m.from) { //sara:maprange-ok min-reduction is order-insensitive
		if v < worst {
			worst = v
		}
	}
	return worst
}

// sweepDelta varies Policy 2's threshold: higher delta favors row hits
// (bandwidth) at growing risk to urgent transactions (worst-case NPI).
func sweepDelta(o *invocation, w io.Writer) error {
	fmt.Fprintln(w, "delta  bandwidth(GB/s)  worst min NPI (critical cores)")
	for delta := 0; delta <= 8; delta += 2 {
		cfg := sara.Saturated(
			sara.WithPolicy(memctrl.QoSRB),
			sara.WithScaleDiv(o.Opt.ScaleDiv),
			sara.WithSeed(o.Opt.Seed),
			sara.WithDelta(txn.Priority(min(delta, 7))),
			sara.WithRefresh(o.Opt.Refresh))
		if delta == 8 {
			// delta = 8 means "row hits always win" (no priority override).
			cfg.Delta = 8
		}
		m, err := o.run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%5d  %14.2f  %.3f\n", delta, m.bandwidth(), m.worstNPI())
	}
	return nil
}

// sweepBits varies the priority quantization k in 1..4 under Policy 1.
func sweepBits(o *invocation, w io.Writer) error {
	fmt.Fprintln(w, "bits  levels  worst min NPI (case A, QoS)")
	for bits := 1; bits <= 4; bits++ {
		cfg := sara.Camcorder(sara.CaseA,
			sara.WithPolicy(memctrl.QoS),
			sara.WithScaleDiv(o.Opt.ScaleDiv),
			sara.WithSeed(o.Opt.Seed),
			sara.WithPriorityBits(bits),
			sara.WithRefresh(o.Opt.Refresh))
		// Per-core LUT overrides are sized for 8 levels; drop them when
		// sweeping other quantizations.
		if bits != 3 {
			for i := range cfg.DMAs {
				cfg.DMAs[i].LUTBounds = nil
			}
		}
		m, err := o.run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d  %6d  %.3f\n", bits, 1<<bits, m.worstNPI())
	}
	return nil
}

// sweepAging varies the starvation limit T under Policy 1.
func sweepAging(o *invocation, w io.Writer) error {
	fmt.Fprintln(w, "agingT  worst min NPI (case A, QoS)")
	for _, t := range []uint64{1000, 10000, 100000, 0} {
		cfg := sara.Camcorder(sara.CaseA,
			sara.WithPolicy(memctrl.QoS),
			sara.WithScaleDiv(o.Opt.ScaleDiv),
			sara.WithSeed(o.Opt.Seed),
			sara.WithAgingT(sara.Cycle(t)),
			sara.WithRefresh(o.Opt.Refresh))
		m, err := o.run(cfg)
		if err != nil {
			return err
		}
		label := fmt.Sprint(t)
		if t == 0 {
			label = "off"
		}
		fmt.Fprintf(w, "%6s  %.3f\n", label, m.worstNPI())
	}
	return nil
}

// sweepRefresh compares the saturated workload with refresh off and on:
// how much bandwidth the tREFI cadence steals and what it costs the
// worst-case NPI under both row-aware policies.
func sweepRefresh(o *invocation, w io.Writer) error {
	fmt.Fprintln(w, "policy     refresh  bandwidth(GB/s)  refreshes  blackout%  worst min NPI")
	for _, policy := range []memctrl.PolicyKind{memctrl.QoS, memctrl.QoSRB} {
		for _, on := range []bool{false, true} {
			cfg := sara.Saturated(
				sara.WithPolicy(policy),
				sara.WithScaleDiv(o.Opt.ScaleDiv),
				sara.WithSeed(o.Opt.Seed),
				sara.WithRefresh(on))
			m, err := o.run(cfg)
			if err != nil {
				return err
			}
			label := "off"
			if on {
				label = "on"
			}
			fmt.Fprintf(w, "%-9s  %-7s  %15.2f  %9d  %8.1f%%  %.3f\n",
				policy, label, m.bandwidth(),
				m.sys.DRAMStats().Totals().Refreshes,
				100*m.sys.RefreshDuty(m.sys.Now()), m.worstNPI())
		}
	}
	return nil
}

// sweepScale grows the saturated workload to 2x and 4x channels and
// cores and measures the loaded-phase simulation cost. The number to
// watch is ns/cycle/channel: the controllers' per-bank candidate buckets
// and the routers' grant dormancy keep the per-channel scheduling cost
// near-flat as the SoC grows, instead of re-inflating with total queue
// depth.
func sweepScale(o *invocation, w io.Writer) error {
	fmt.Fprintln(w, "scale  channels  DMAs  bandwidth(GB/s)  ns/cycle  ns/cycle/channel")
	for _, factor := range []int{1, 2, 4} {
		cfg := sara.ScaledSaturated(factor,
			sara.WithScaleDiv(o.Opt.ScaleDiv),
			sara.WithSeed(o.Opt.Seed),
			sara.WithRefresh(o.Opt.Refresh))
		m, err := o.run(cfg)
		if err != nil {
			return err
		}
		nsPerCycle := float64(m.elapsed.Nanoseconds()) / float64(m.sys.Now()-m.from)
		ch := cfg.DRAM.Geometry.Channels
		fmt.Fprintf(w, "%4dx  %8d  %4d  %15.2f  %8.0f  %16.0f\n",
			factor, ch, len(cfg.DMAs), m.bandwidth(), nsPerCycle, nsPerCycle/float64(ch))
	}
	return nil
}

// sweepSeeds fans one (case, policy) across seeds through the supervised
// harness and reports the across-seed confidence intervals. Failed cells
// are reported with their rerun command and fail the sweep's exit code
// after the surviving cells' summary prints.
func sweepSeeds(o *invocation, w io.Writer) error {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var failed int
	for _, policy := range []memctrl.PolicyKind{memctrl.QoS, memctrl.FCFS} {
		runs, err := exp.RunSeeds(config.CaseA, policy, seeds, o.Opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, exp.FormatSeedSummary(runs))
		for i, r := range runs {
			o.Report(fmt.Sprintf("%v-seed%d", policy, seeds[i]), r.Analysis)
		}
		for _, re := range exp.Failed(runs) {
			failed++
			fmt.Fprintln(w, re.Error())
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d cell(s) failed", failed)
	}
	return nil
}

// sweepCell runs the single cell the -case/-policy/-seed/... flags
// describe — the command every supervisor Repro line rebuilds a failure
// with. With refresh on it splits each below-target core's shortfall
// between the refresh cadence and contention, so "the dip is tREFI, not
// the policy" is visible at a glance; cores at or above the pass
// threshold are healthy by the tool's own criterion and get no line.
func sweepCell(o *invocation, w io.Writer) error {
	runs, err := exp.RunCells([]exp.Cell{o.Cell}, o.Opt)
	if err != nil {
		return err
	}
	r := runs[0]
	fmt.Fprint(w, exp.FormatRun(r))
	o.Report(o.Cell.String(), r.Analysis)
	if r.Err != nil {
		return r.Err
	}
	if r.Refreshes > 0 {
		for _, core := range r.CriticalCores {
			if npi := r.MinNPI[core]; npi < exp.PassNPI {
				ref, cont := meter.StallAttribution(npi, r.RefreshDuty)
				fmt.Fprintf(w, "  %-14s shortfall %.3f = refresh %.3f + contention %.3f\n",
					core, ref+cont, ref, cont)
			}
		}
	}
	return o.WriteSeries(w, r)
}
