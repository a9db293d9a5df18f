// Command sarasweep runs the design-space sweeps listed in README's
// "Regenerating the figures" section: the ablations of Policy 2's
// row-buffer threshold delta, the priority quantization k and the aging
// limit T, the refresh on/off comparison, a seed fan-out with confidence
// intervals, the scaled-SoC cost curve — and "cell", the single-cell
// runner the supervisor's Repro lines name (README, "Crash safety &
// resume").
//
//	sarasweep -sweep delta
//	sarasweep -sweep bits
//	sarasweep -sweep aging
//	sarasweep -sweep refresh
//	sarasweep -sweep seeds
//	sarasweep -sweep scale
//	sarasweep -sweep cell -case A -policy qos -seed 3
//
// The -refresh flag enables LPDDR4 refresh in the delta/bits/aging/seeds
// and scale sweeps so any ablation can be re-run under refresh pressure.
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
	"os"
	"sort"
	"strings"
	"time"

	"sara"
	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/dram"
	"sara/internal/exp"
	"sara/internal/memctrl"
	"sara/internal/txn"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cliOptions carries one invocation's parsed flags to the sweep funcs.
type cliOptions struct {
	opt  exp.Options   // fidelity + supervisor budgets (timeout, journal, ...)
	cell exp.Cell      // the -sweep cell target
	sink *analysisSink // -analyze / -monitor / -analysis-out wiring
}

// analysisSink wires -analyze and -monitor into the sweeps and collects
// the labeled reports -analysis-out writes. The RunCells-backed sweeps
// (seeds, cell) get their analyzers from exp.Options and only deposit
// reports here; the direct-build ablation sweeps attach per system via
// attach, which also closes the previous system's analyzer first and
// harvests its report — those sweeps build one system at a time.
type analysisSink struct {
	enabled bool
	window  uint64
	mon     *sara.Monitor
	prefix  string
	seq     int
	reports map[string]*sara.AnalysisReport

	az    *sara.Analyzer
	h     *sara.MonitorRun
	label string
}

// attach closes the previous system's analyzer and arms one on sys.
func (s *analysisSink) attach(sys *core.System) {
	if !s.enabled && s.mon == nil {
		return
	}
	s.close()
	s.label = fmt.Sprintf("%s#%d", s.prefix, s.seq)
	s.seq++
	s.h = s.mon.StartRun(s.label)
	aopt := sara.AnalysisOptions{Window: sara.Cycle(s.window)}
	if s.h != nil {
		aopt.Publish = s.h.Publish
	}
	s.az = sara.AttachAnalyzer(sys, aopt)
}

// close detaches the live analyzer, harvesting its report.
func (s *analysisSink) close() {
	if s == nil || s.az == nil {
		return
	}
	s.az.Detach()
	if s.enabled {
		s.reports[s.label] = s.az.Report()
	}
	s.h.Finish(true)
	s.az, s.h = nil, nil
}

// deposit records a RunCells-produced report under label.
func (s *analysisSink) deposit(label string, rep *sara.AnalysisReport) {
	if s != nil && rep != nil {
		s.reports[label] = rep
	}
}

// writeReports writes the collected reports to path: CSV sections for a
// .csv suffix, one JSON object otherwise.
func (s *analysisSink) writeReports(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return sara.WriteAnalysisCSV(f, s.reports)
	}
	return sara.WriteAnalysisJSON(f, s.reports)
}

// sweeps is the dispatch table; -sweep is validated against it up front.
var sweeps = map[string]func(o cliOptions, w io.Writer) error{
	"delta":   sweepDelta,
	"bits":    sweepBits,
	"aging":   sweepAging,
	"refresh": sweepRefresh,
	"seeds":   sweepSeeds,
	"scale":   sweepScale,
	"cell":    sweepCell,
}

// sweepNames lists the valid -sweep values for the usage text.
func sweepNames() string {
	names := make([]string, 0, len(sweeps))
	for n := range sweeps {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// run is main without the process plumbing, so tests can drive the CLI
// and assert output and exit codes. 0 = success, 1 = a run failed,
// 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sarasweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sweep := fs.String("sweep", "delta", "sweep to run: "+sweepNames())
	scale := exp.PositiveFlag(fs, "scale", sara.DefaultScaleDiv, "time-scale divisor")
	refresh := fs.Bool("refresh", false, "enable LPDDR4 refresh (tREFI/tRFC) in the sweep")
	timeout := fs.Duration("timeout", 0, "wall-clock budget per run; overruns abort with a watchdog diagnosis (0 = unbounded)")
	maxCycles := fs.Uint64("max-cycles", 0, "executed-cycle budget per run (0 = unbounded)")
	retries := fs.Int("retries", 0, "rerun a failed cell up to this many extra times (seeds/cell sweeps)")
	journal := fs.String("journal", "", "JSONL checkpoint journal for the seeds/cell sweeps")
	resume := fs.Bool("resume", false, "with -journal: serve already-completed cells from the journal")
	caseName := fs.String("case", "A", "cell sweep: test case, A or B")
	policyName := fs.String("policy", "qos", "cell sweep: arbitration policy (fcfs|rr|frfcfs|framerate|qos|qos-rb)")
	seed := fs.Uint64("seed", 1, "workload seed")
	freq := fs.Int("freq", 0, "cell sweep: DRAM data rate in MT/s (0 = case default)")
	socScale := exp.PositiveFlag(fs, "soc-scale", 1, "cell sweep: SoC scale factor (channels and DMAs; a power of two)")
	saturated := fs.Bool("saturated", false, "cell sweep: bandwidth-bound saturated variant")
	warmup := fs.Int("warmup", 0, "cell sweep: warmup frames before measurement")
	measure := exp.PositiveFlag(fs, "measure", 1, "cell sweep: measured frames")
	analyze := fs.Bool("analyze", false, "attach the stall-attribution analyzers")
	analysisWindow := fs.Uint64("analysis-window", 0, "analyzer aggregation window in cycles (0 = 4 NPI sampling periods)")
	analysisOut := fs.String("analysis-out", "", "with -analyze: write the windowed reports here (.csv = CSV sections, else JSON)")
	monitorAddr := fs.String("monitor", "", "serve the live HTTP sweep monitor on this address (e.g. :8080)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *analysisOut != "" && !*analyze {
		fmt.Fprintln(stderr, "sarasweep: -analysis-out requires -analyze")
		return 2
	}
	fn, ok := sweeps[*sweep]
	if !ok {
		fmt.Fprintf(stderr, "sarasweep: unknown sweep %q (want %s)\n", *sweep, sweepNames())
		fs.Usage()
		return 2
	}
	var tc config.Case
	switch *caseName {
	case "A", "a":
		tc = config.CaseA
	case "B", "b":
		tc = config.CaseB
	default:
		fmt.Fprintf(stderr, "sarasweep: unknown case %q (want A or B)\n", *caseName)
		return 2
	}
	policy, err := memctrl.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(stderr, "sarasweep: %v\n", err)
		return 2
	}

	o := cliOptions{
		opt: exp.Options{
			ScaleDiv:       *scale,
			Refresh:        *refresh,
			Seed:           *seed,
			WarmupFrames:   *warmup,
			MeasureFrames:  *measure,
			Timeout:        *timeout,
			MaxCycles:      *maxCycles,
			Retries:        *retries,
			Journal:        *journal,
			Resume:         *resume,
			Analyze:        *analyze,
			AnalysisWindow: *analysisWindow,
		},
		cell: exp.Cell{
			Case:         tc,
			Policy:       policy,
			Seed:         *seed,
			DataRateMTps: *freq,
			Scale:        *socScale,
			Saturated:    *saturated,
		},
		sink: &analysisSink{
			enabled: *analyze,
			window:  *analysisWindow,
			prefix:  *sweep,
			reports: make(map[string]*sara.AnalysisReport),
		},
	}
	// Refuse bad values before any build. Every sweep but the cell
	// sweep runs case A, so its frame period is the one to check.
	check := o.cell
	if *sweep != "cell" {
		check = exp.Cell{Case: config.CaseA}
	}
	if err := check.Validate(o.opt); err != nil {
		fmt.Fprintf(stderr, "sarasweep: %v\n", err)
		return 2
	}
	if *monitorAddr != "" {
		mon := sara.NewMonitor()
		if err := mon.Start(*monitorAddr); err != nil {
			fmt.Fprintf(stderr, "sarasweep: %v\n", err)
			return 2
		}
		defer mon.Close()
		fmt.Fprintf(stdout, "monitor: http://%s\n", mon.Addr())
		o.sink.mon = mon
		o.opt.Monitor = mon
	}
	err = fn(o, stdout)
	o.sink.close()
	if err == nil && *analysisOut != "" {
		if err = o.sink.writeReports(*analysisOut); err == nil {
			fmt.Fprintf(stdout, "wrote %s\n", *analysisOut)
		}
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
func (o cliOptions) run(cfg core.Config) (m window, err error) {
	m.sys = sara.Build(cfg)
	if wd := o.opt.Watchdog(); wd != nil {
		m.sys.SetWatchdog(wd)
	}
	o.sink.attach(m.sys)
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
func sweepDelta(o cliOptions, w io.Writer) error {
	fmt.Fprintln(w, "delta  bandwidth(GB/s)  worst min NPI (critical cores)")
	for delta := 0; delta <= 8; delta += 2 {
		cfg := sara.Saturated(
			sara.WithPolicy(memctrl.QoSRB),
			sara.WithScaleDiv(o.opt.ScaleDiv),
			sara.WithDelta(txn.Priority(min(delta, 7))),
			sara.WithRefresh(o.opt.Refresh))
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
func sweepBits(o cliOptions, w io.Writer) error {
	fmt.Fprintln(w, "bits  levels  worst min NPI (case A, QoS)")
	for bits := 1; bits <= 4; bits++ {
		cfg := sara.Camcorder(sara.CaseA,
			sara.WithPolicy(memctrl.QoS),
			sara.WithScaleDiv(o.opt.ScaleDiv),
			sara.WithPriorityBits(bits),
			sara.WithRefresh(o.opt.Refresh))
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
func sweepAging(o cliOptions, w io.Writer) error {
	fmt.Fprintln(w, "agingT  worst min NPI (case A, QoS)")
	for _, t := range []uint64{1000, 10000, 100000, 0} {
		cfg := sara.Camcorder(sara.CaseA,
			sara.WithPolicy(memctrl.QoS),
			sara.WithScaleDiv(o.opt.ScaleDiv),
			sara.WithAgingT(sara.Cycle(t)),
			sara.WithRefresh(o.opt.Refresh))
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
func sweepRefresh(o cliOptions, w io.Writer) error {
	fmt.Fprintln(w, "policy     refresh  bandwidth(GB/s)  refreshes  blackout%  worst min NPI")
	for _, policy := range []memctrl.PolicyKind{memctrl.QoS, memctrl.QoSRB} {
		for _, on := range []bool{false, true} {
			cfg := sara.Saturated(
				sara.WithPolicy(policy),
				sara.WithScaleDiv(o.opt.ScaleDiv),
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
func sweepScale(o cliOptions, w io.Writer) error {
	fmt.Fprintln(w, "scale  channels  DMAs  bandwidth(GB/s)  ns/cycle  ns/cycle/channel")
	for _, factor := range []int{1, 2, 4} {
		cfg := sara.ScaledSaturated(factor,
			sara.WithScaleDiv(o.opt.ScaleDiv),
			sara.WithRefresh(o.opt.Refresh))
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
func sweepSeeds(o cliOptions, w io.Writer) error {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var failed int
	for _, policy := range []memctrl.PolicyKind{memctrl.QoS, memctrl.FCFS} {
		runs, err := exp.RunSeeds(config.CaseA, policy, seeds, o.opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, exp.FormatSeedSummary(runs))
		for i, r := range runs {
			o.sink.deposit(fmt.Sprintf("%v-seed%d", policy, seeds[i]), r.Analysis)
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
// with.
func sweepCell(o cliOptions, w io.Writer) error {
	runs, err := exp.RunCells([]exp.Cell{o.cell}, o.opt)
	if err != nil {
		return err
	}
	fmt.Fprint(w, exp.FormatRun(runs[0]))
	o.sink.deposit(o.cell.String(), runs[0].Analysis)
	if runs[0].Err != nil {
		return runs[0].Err
	}
	return nil
}
