// The command-line front end: every run parameter's flag is defined,
// checked and spelled here once, for saraexp and sarasweep alike, and
// Cell.Repro writes a cell's command line back with the same names.
package exp

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/memctrl"
	"sara/internal/stats"
)

// The flag names Cell.Repro or a usage message writes besides BindFlags.
const (
	flagScale       = "scale"
	flagSeed        = "seed"
	flagRefresh     = "refresh"
	flagAnalyze     = "analyze"
	flagAnalysisOut = "analysis-out"
	flagCase        = "case"
	flagPolicy      = "policy"
	flagFreq        = "freq"
	flagSoCScale    = "soc-scale"
	flagSaturated   = "saturated"
	flagWarmup      = "warmup"
	flagMeasure     = "measure"
)

// A FlagGroup is a set of run flags. BindFlags defines the groups a
// command takes, and Flags.Check refuses those its chosen run does not
// read.
type FlagGroup uint

const (
	// BaseFlags are read by every run: -scale, -timeout, -max-cycles,
	// -analyze, -analysis-window, -analysis-out and -monitor.
	BaseFlags FlagGroup = 1 << iota
	// SeedFlag is -seed.
	SeedFlag
	// RefreshFlag is -refresh.
	RefreshFlag
	// SuperviseFlags are RunCells' -retries, -journal and -resume.
	SuperviseFlags
	// FrameFlags are -warmup and -measure.
	FrameFlags
	// CellFieldFlags are one cell's fields and its series dump: -case,
	// -policy, -freq, -soc-scale, -saturated and -csv.
	CellFieldFlags

	// RunFlags are the run options saraexp and sarasweep share.
	RunFlags = BaseFlags | SeedFlag | RefreshFlag | SuperviseFlags
	// CellFlags are the cell fields only sarasweep reads.
	CellFlags = FrameFlags | CellFieldFlags
)

// Flags is one command's run flags. Once its flag set has parsed, Opt
// and Cell hold the run the command line describes: Cell.Seed is
// Opt.Seed, and a group not bound keeps its defaults.
type Flags struct {
	Opt  Options
	Cell Cell

	fs                        *flag.FlagSet
	group                     map[string]FlagGroup
	analysisOut, monitor, csv string
	reports                   map[string]*analysis.Report
}

// BindFlags defines the flags of groups on fs. Flags fs already has, or
// gets later, belong to no group and are never refused.
func BindFlags(fs *flag.FlagSet, groups FlagGroup) *Flags {
	f := &Flags{
		Opt:     Options{ScaleDiv: config.DefaultScaleDiv, Seed: 1, MeasureFrames: 1},
		Cell:    Cell{Case: config.CaseA, Policy: memctrl.QoS, Scale: 1},
		fs:      fs,
		group:   map[string]FlagGroup{},
		reports: map[string]*analysis.Report{},
	}
	fs.VisitAll(func(fl *flag.Flag) { f.group[fl.Name] = 0 })
	define := func(g FlagGroup, def func()) {
		if groups&g == 0 {
			return
		}
		def()
		fs.VisitAll(func(fl *flag.Flag) {
			if _, ok := f.group[fl.Name]; !ok {
				f.group[fl.Name] = g
			}
		})
	}
	o, c := &f.Opt, &f.Cell
	define(BaseFlags, func() {
		positiveFlag(fs, &o.ScaleDiv, flagScale, "time-scale divisor (larger = faster, coarser)")
		fs.DurationVar(&o.Timeout, "timeout", 0, "wall-clock budget per run; overruns abort with a watchdog diagnosis (0 = unbounded)")
		fs.Uint64Var(&o.MaxCycles, "max-cycles", 0, "executed-cycle budget per run (0 = unbounded)")
		fs.BoolVar(&o.Analyze, flagAnalyze, false, "attach the stall-attribution analyzers to every run")
		fs.Uint64Var(&o.AnalysisWindow, "analysis-window", 0, "analyzer aggregation window in cycles (0 = 4 NPI sampling periods)")
		fs.StringVar(&f.analysisOut, flagAnalysisOut, "", "with -analyze: write the windowed reports here (.csv = CSV sections, else JSON)")
		fs.StringVar(&f.monitor, "monitor", "", "serve the live HTTP run monitor on this address (e.g. :8080)")
	})
	define(SeedFlag, func() { fs.Uint64Var(&o.Seed, flagSeed, o.Seed, "workload seed") })
	define(RefreshFlag, func() {
		fs.BoolVar(&o.Refresh, flagRefresh, false, "enable LPDDR4 refresh (tREFI/tRFC) in every run")
	})
	define(SuperviseFlags, func() {
		fs.IntVar(&o.Retries, "retries", 0, "rerun a failed run up to this many extra times")
		fs.StringVar(&o.Journal, "journal", "", "JSONL checkpoint journal of completed runs")
		fs.BoolVar(&o.Resume, "resume", false, "with -journal: serve already-completed runs from the journal")
	})
	define(FrameFlags, func() {
		fs.IntVar(&o.WarmupFrames, flagWarmup, 0, "warmup frames before measurement")
		positiveFlag(fs, &o.MeasureFrames, flagMeasure, "measured frames (with no warmup the first quarter frame is left out of the minimum NPI)")
	})
	define(CellFieldFlags, func() {
		fs.Func(flagCase, "test case: A or B (Table 1; default A)", func(s string) error {
			switch strings.ToUpper(s) {
			case "A":
				c.Case = config.CaseA
			case "B":
				c.Case = config.CaseB
			default:
				return fmt.Errorf("unknown case %q (want A or B)", s)
			}
			return nil
		})
		fs.Func(flagPolicy, "arbitration policy: fcfs|rr|frfcfs|framerate|qos|qos-rb (default qos)", func(s string) (err error) {
			c.Policy, err = memctrl.ParsePolicy(s)
			return err
		})
		fs.IntVar(&c.DataRateMTps, flagFreq, 0, "DRAM data rate in MT/s (0 = the case's)")
		positiveFlag(fs, &c.Scale, flagSoCScale, "SoC scale factor (channels and DMAs; a power of two)")
		fs.BoolVar(&c.Saturated, flagSaturated, false, "bandwidth-bound saturated variant of case A")
		fs.StringVar(&f.csv, "csv", "", "write the per-DMA NPI time series to this CSV file")
	})
	return f
}

// positiveFlag defines an int flag at p that refuses, as a parse error,
// any value below 1: Options and Cell read a zero there as the default,
// so a command line that asks for 0 would otherwise silently run it.
func positiveFlag(fs *flag.FlagSet, p *int, name, usage string) {
	fs.Func(name, fmt.Sprintf("%s (default %d)", usage, *p), func(s string) error {
		v, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err == nil && v < 1 {
			err = errors.New("want >= 1")
		}
		*p = int(v)
		return err
	})
}

// Check returns the command line's first usage error: the first flag,
// in name order, set outside the groups the chosen run reads (user names
// that run), -analysis-out without -analyze, or the first of cells that
// Cell.Validate refuses under Opt. It also makes Cell.Seed Opt.Seed.
func (f *Flags) Check(reads FlagGroup, user string, cells ...Cell) error {
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		if g := f.group[fl.Name]; err == nil && g != 0 && reads&g == 0 {
			err = fmt.Errorf("-%s is not read by %s", fl.Name, user)
		}
	})
	if err != nil {
		return err
	}
	f.Cell.Seed = f.Opt.Seed
	if f.analysisOut != "" && !f.Opt.Analyze {
		return fmt.Errorf("-%s requires -%s", flagAnalysisOut, flagAnalyze)
	}
	for _, c := range cells {
		if err := c.Validate(f.Opt); err != nil {
			return err
		}
	}
	return nil
}

// Start serves the live monitor -monitor asks for, says where on w and
// hands it to Opt; stop closes it. With no -monitor it starts nothing.
func (f *Flags) Start(w io.Writer) (stop func(), err error) {
	if f.monitor == "" {
		return func() {}, nil
	}
	mon := analysis.NewMonitor()
	if err := mon.Start(f.monitor); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "monitor: http://%s\n", mon.Addr())
	f.Opt.Monitor = mon
	return func() { mon.Close() }, nil
}

// Report files rep under label for -analysis-out; a nil rep is skipped.
func (f *Flags) Report(label string, rep *analysis.Report) {
	if rep != nil {
		f.reports[label] = rep
	}
}

// WriteReports writes the filed reports to -analysis-out, if set:
// `# label`-separated CSV sections for a .csv suffix, one JSON object
// keyed by label otherwise.
func (f *Flags) WriteReports(w io.Writer) error {
	if f.analysisOut == "" {
		return nil
	}
	return writeFile(w, f.analysisOut, func(out io.Writer) error {
		if strings.HasSuffix(f.analysisOut, ".csv") {
			return analysis.WriteReportsCSV(out, f.reports)
		}
		return analysis.WriteReportsJSON(out, f.reports)
	})
}

// WriteSeries writes run's per-DMA NPI time series to -csv, if set, in
// label order.
func (f *Flags) WriteSeries(w io.Writer, run PolicyRun) error {
	if f.csv == "" {
		return nil
	}
	var series []*stats.Series
	for _, n := range slices.Sorted(maps.Keys(run.Series)) {
		series = append(series, run.Series[n])
	}
	return writeFile(w, f.csv, func(out io.Writer) error { return stats.WriteCSV(out, series...) })
}

// writeFile creates path, fills it with write and says so on w.
func writeFile(w io.Writer, path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return err
}
