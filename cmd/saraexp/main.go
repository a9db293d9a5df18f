// Command saraexp regenerates the paper's evaluation figures:
//
//	saraexp            # all figures
//	saraexp -fig 5     # one figure (5, 6, 7, 8 or 9)
//	saraexp -scale 64  # trade fidelity for speed
//
// Output is a text report with the same rows/series the paper plots:
// per-core minimum NPI for Figs. 5/6/9, the image processor's
// priority-level distribution per DRAM frequency for Fig. 7, and the
// average-bandwidth bars for Fig. 8.
//
// Crash safety: -timeout and -max-cycles bound each run of the
// supervised figures (5, 6, 8, 9) with the kernel watchdog; -journal
// checkpoints their completed runs to a JSONL file and -resume serves
// them from it on a rerun. A run that panics or trips a budget prints its failure and
// rerun command in place of its table rows, the remaining runs complete,
// and the exit code reports the damage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sara"
	"sara/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// titles heads each figure's section of the report.
var titles = map[int]string{
	5: "=== Fig. 5: NPI of critical cores, test case A, one frame ===",
	6: "=== Fig. 6: NPI of critical cores, test case B, one frame ===",
	7: "=== Fig. 7: Image Proc. priority distribution vs DRAM frequency ===",
	8: "=== Fig. 8: average DRAM bandwidth by scheduling policy ===",
	9: "=== Fig. 9: FR-FCFS vs QoS-RB, test case A ===",
}

// run is main without the process plumbing, so tests can drive the CLI
// and assert output and exit codes. 0 = success, 1 = a run failed,
// 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("saraexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate (5..9); 0 = all")
	scale := exp.PositiveFlag(fs, "scale", sara.DefaultScaleDiv, "time-scale divisor (larger = faster, coarser)")
	seed := fs.Uint64("seed", 1, "workload seed")
	refresh := fs.Bool("refresh", false, "enable LPDDR4 refresh (tREFI/tRFC) in every run")
	timeout := fs.Duration("timeout", 0, "wall-clock budget per run (0 = unbounded)")
	maxCycles := fs.Uint64("max-cycles", 0, "executed-cycle budget per run (0 = unbounded)")
	retries := fs.Int("retries", 0, "rerun a failed run up to this many extra times")
	journal := fs.String("journal", "", "JSONL checkpoint journal for the supervised figures")
	resume := fs.Bool("resume", false, "with -journal: serve already-completed runs from the journal")
	analyze := fs.Bool("analyze", false, "attach the stall-attribution analyzers to every run")
	analysisWindow := fs.Uint64("analysis-window", 0, "analyzer aggregation window in cycles (0 = 4 NPI sampling periods)")
	analysisOut := fs.String("analysis-out", "", "with -analyze: write the windowed reports of figures 5/6/9 here (.csv = CSV sections, else JSON)")
	monitorAddr := fs.String("monitor", "", "serve the live HTTP run monitor on this address (e.g. :8080)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig != 0 && (*fig < 5 || *fig > 9) {
		fmt.Fprintf(stderr, "saraexp: unknown figure %d (want 5..9)\n", *fig)
		fs.Usage()
		return 2
	}
	if *analysisOut != "" && !*analyze {
		fmt.Fprintln(stderr, "saraexp: -analysis-out requires -analyze")
		return 2
	}

	opt := sara.ExpOptions{
		ScaleDiv:       *scale,
		Seed:           *seed,
		Refresh:        *refresh,
		Timeout:        *timeout,
		MaxCycles:      *maxCycles,
		Retries:        *retries,
		Journal:        *journal,
		Resume:         *resume,
		Analyze:        *analyze,
		AnalysisWindow: *analysisWindow,
	}
	figs := []int{*fig}
	if *fig == 0 {
		figs = []int{5, 6, 7, 8, 9}
	}
	for _, n := range figs {
		for _, c := range exp.FigureCells(n) {
			if err := c.Validate(opt); err != nil {
				fmt.Fprintf(stderr, "saraexp: %v\n", err)
				return 2
			}
		}
	}
	if *monitorAddr != "" {
		mon := sara.NewMonitor()
		if err := mon.Start(*monitorAddr); err != nil {
			fmt.Fprintf(stderr, "saraexp: %v\n", err)
			return 2
		}
		defer mon.Close()
		fmt.Fprintf(stdout, "monitor: http://%s\n", mon.Addr())
		opt.Monitor = mon
	}

	failed := 0
	reports := make(map[string]*sara.AnalysisReport)
	report := func(fig int, runs []sara.PolicyRun) {
		for _, r := range runs {
			fmt.Fprint(stdout, exp.FormatRun(r))
			if r.Analysis != nil {
				reports[fmt.Sprintf("fig%d-case%s-%v", fig, r.Case, r.Policy)] = r.Analysis
			}
			if r.Err != nil {
				failed++
			}
		}
	}
	for _, n := range figs {
		fmt.Fprintln(stdout, titles[n])
		var runs []sara.PolicyRun
		var err error
		switch n {
		case 5:
			runs, err = sara.Fig5(opt)
		case 6:
			runs, err = sara.Fig6(opt)
		case 7:
			var hists []sara.FreqHistogram
			hists, err = sara.Fig7(opt)
			fmt.Fprint(stdout, exp.FormatFig7(hists))
		case 8:
			var bars []sara.BandwidthResult
			bars, err = sara.Fig8(opt)
			fmt.Fprint(stdout, exp.FormatFig8(bars))
		case 9:
			runs, err = sara.Fig9(opt)
		}
		report(n, runs)
		if err == nil {
			continue
		}
		// The cells passed validation above, so this is a journal error
		// or the failed cells of Fig. 7 or 8, joined: count each.
		errs := []error{err}
		if joined, ok := err.(interface{ Unwrap() []error }); ok {
			errs = joined.Unwrap()
		}
		for _, e := range errs {
			fmt.Fprintf(stderr, "saraexp: %v\n", e)
			failed++
		}
	}
	if *analysisOut != "" {
		if err := writeAnalysis(*analysisOut, reports); err != nil {
			fmt.Fprintf(stderr, "saraexp: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *analysisOut)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "saraexp: %d run(s) failed; rerun commands above\n", failed)
		return 1
	}
	return 0
}

// writeAnalysis writes the figures' windowed observability reports to
// path: `# label`-separated CSV sections for a .csv suffix, one JSON
// object otherwise.
func writeAnalysis(path string, reports map[string]*sara.AnalysisReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return sara.WriteAnalysisCSV(f, reports)
	}
	return sara.WriteAnalysisJSON(f, reports)
}
