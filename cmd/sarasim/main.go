// Command sarasim runs one camcorder simulation and reports per-core QoS:
//
//	sarasim -case A -policy qos -frames 2 -scale 32 [-csv npi.csv]
//
// It prints each core's minimum NPI over the measured frames, the DRAM
// bandwidth and row-hit rate, and optionally dumps the per-DMA NPI time
// series as CSV.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sara"
	"sara/internal/exp"
	"sara/internal/memctrl"
	"sara/internal/meter"
	"sara/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process plumbing, so tests can drive the CLI
// and assert output and exit codes. 0 = success, 1 = the run or an
// output write failed, 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sarasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	caseName := fs.String("case", "A", "test case: A or B (Table 1)")
	policyName := fs.String("policy", "qos", "arbitration policy: fcfs|rr|frfcfs|framerate|qos|qos-rb")
	frames := exp.PositiveFlag(fs, "frames", 1, "measured frame periods, from cycle 0 (no warmup; the first quarter frame is left out of the minimum NPI)")
	scale := exp.PositiveFlag(fs, "scale", sara.DefaultScaleDiv, "time-scale divisor (larger = faster, coarser)")
	seed := fs.Uint64("seed", 1, "workload seed")
	refresh := fs.Bool("refresh", false, "enable LPDDR4 refresh (tREFI/tRFC)")
	csvPath := fs.String("csv", "", "write per-DMA NPI time series to this CSV file")
	analyze := fs.Bool("analyze", false, "attach the stall-attribution analyzers")
	analysisWindow := fs.Uint64("analysis-window", 0, "analyzer aggregation window in cycles (0 = 4 NPI sampling periods)")
	analysisOut := fs.String("analysis-out", "", "with -analyze: write the windowed report here (.csv = system series CSV, else JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *analysisOut != "" && !*analyze {
		fmt.Fprintln(stderr, "sarasim: -analysis-out requires -analyze")
		return 2
	}

	tc := sara.CaseA
	switch *caseName {
	case "A", "a":
	case "B", "b":
		tc = sara.CaseB
	default:
		fmt.Fprintf(stderr, "sarasim: unknown case %q (want A or B)\n", *caseName)
		return 2
	}
	policy, err := memctrl.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(stderr, "sarasim: %v\n", err)
		return 2
	}

	opt := sara.ExpOptions{
		ScaleDiv:       *scale,
		MeasureFrames:  *frames,
		Seed:           *seed,
		Refresh:        *refresh,
		Analyze:        *analyze,
		AnalysisWindow: *analysisWindow,
	}
	if err := (sara.Cell{Case: tc, Policy: policy}).Validate(opt); err != nil {
		fmt.Fprintf(stderr, "sarasim: %v\n", err)
		return 2
	}
	res := sara.RunPolicy(tc, policy, opt)
	fmt.Fprint(stdout, exp.FormatRun(res))
	if res.Err != nil {
		return 1
	}
	if res.Refreshes > 0 {
		// Split each below-target core's shortfall between the refresh
		// cadence and contention, so "the dip is tREFI, not the policy"
		// is visible at a glance. Cores at or above the pass threshold
		// are healthy by the tool's own criterion and get no line.
		for _, core := range res.CriticalCores {
			npi := res.MinNPI[core]
			if npi >= exp.PassNPI {
				continue
			}
			ref, cont := meter.StallAttribution(npi, res.RefreshDuty)
			fmt.Fprintf(stdout, "  %-14s shortfall %.3f = refresh %.3f + contention %.3f\n",
				core, ref+cont, ref, cont)
		}
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, res); err != nil {
			fmt.Fprintf(stderr, "sarasim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	if *analysisOut != "" {
		if err := writeAnalysis(*analysisOut, res.Analysis); err != nil {
			fmt.Fprintf(stderr, "sarasim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *analysisOut)
	}
	return 0
}

// writeAnalysis writes the run's windowed observability report: the
// system-level series as CSV for a .csv suffix, the full report as JSON
// otherwise.
func writeAnalysis(path string, rep *sara.AnalysisReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return rep.WriteCSV(f)
	}
	return sara.WriteAnalysisJSON(f, map[string]*sara.AnalysisReport{"run": rep})
}

func writeCSV(path string, run sara.PolicyRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	names := make([]string, 0, len(run.Series))
	for name := range run.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	series := make([]*stats.Series, 0, len(names))
	for _, n := range names {
		series = append(series, run.Series[n])
	}
	return stats.WriteCSV(f, series...)
}
