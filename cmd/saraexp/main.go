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
// Crash safety: -timeout and -max-cycles bound each run with the kernel
// watchdog; -journal checkpoints completed runs to a JSONL file and
// -resume serves them from it on a rerun. A run that panics or trips a
// budget prints its failure and rerun command in place of its table
// rows, the remaining runs complete, and the exit code reports the
// damage. The run flags are exp.BindFlags' RunFlags, shared with
// sarasweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

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
	f := exp.BindFlags(fs, exp.RunFlags)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig != 0 && (*fig < 5 || *fig > 9) {
		fmt.Fprintf(stderr, "saraexp: unknown figure %d (want 5..9)\n", *fig)
		fs.Usage()
		return 2
	}
	figs := []int{*fig}
	if *fig == 0 {
		figs = []int{5, 6, 7, 8, 9}
	}
	var cells []exp.Cell
	for _, n := range figs {
		cells = append(cells, exp.FigureCells(n)...)
	}
	if err := f.Check(exp.RunFlags, "saraexp", cells...); err != nil {
		fmt.Fprintf(stderr, "saraexp: %v\n", err)
		return 2
	}
	stop, err := f.Start(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "saraexp: %v\n", err)
		return 2
	}
	defer stop()

	failed := 0
	for _, n := range figs {
		fmt.Fprintln(stdout, titles[n])
		var runs []sara.PolicyRun
		var err error
		switch n {
		case 5:
			runs, err = sara.Fig5(f.Opt)
		case 6:
			runs, err = sara.Fig6(f.Opt)
		case 7:
			var hists []sara.FreqHistogram
			hists, err = sara.Fig7(f.Opt)
			fmt.Fprint(stdout, exp.FormatFig7(hists))
		case 8:
			var bars []sara.BandwidthResult
			bars, err = sara.Fig8(f.Opt)
			fmt.Fprint(stdout, exp.FormatFig8(bars))
		case 9:
			runs, err = sara.Fig9(f.Opt)
		}
		for _, r := range runs {
			fmt.Fprint(stdout, exp.FormatRun(r))
			f.Report(fmt.Sprintf("fig%d-case%s-%v", n, r.Case, r.Policy), r.Analysis)
			if r.Err != nil {
				failed++
			}
		}
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
	if err := f.WriteReports(stdout); err != nil {
		fmt.Fprintf(stderr, "saraexp: %v\n", err)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "saraexp: %d run(s) failed; rerun commands above\n", failed)
		return 1
	}
	return 0
}
