// Command benchjson converts `go test -bench` output into a small JSON
// document so CI can archive the performance trajectory machine-readably
// across PRs (BENCH_loaded.json: loaded-phase and case-A ns/cycle,
// allocs/op, and the 1x/2x/4x scaled-SoC points).
//
//	go test -run=NONE -bench=... -benchmem . | benchjson -o BENCH_loaded.json
//	benchjson -o BENCH_loaded.json bench.out
//
// With -baseline it additionally compares the fresh ns/cycle numbers
// against a previously-emitted report and exits 3 when any shared
// benchmark regressed by more than -tolerance (fraction, default 0.25):
//
//	benchjson -baseline bench_baseline.json bench.out >/dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds the b.ReportMetric pairs (cycles/op, %skipped,
	// channels, worst-min-NPI, GB/s, ...), keyed by unit.
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	// NsPerCycle is derived from ns/op and the cycles/op metric, the
	// number the README perf tables track.
	NsPerCycle *float64 `json:"ns_per_cycle,omitempty"`
	// NsPerCyclePerChannel divides further by the channels metric on the
	// scaled-SoC benchmarks, the flatness curve the scaling work tracks.
	NsPerCyclePerChannel *float64 `json:"ns_per_cycle_per_channel,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	// Context carries the go test header lines (goos, goarch, pkg, cpu).
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Bench           `json:"benchmarks"`
}

// parse consumes go test -bench output.
func parse(r io.Reader) (Report, error) {
	rep := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			prefix := key + ": "
			if len(line) > len(prefix) && line[:len(prefix)] == prefix {
				rep.Context[key] = line[len(prefix):]
			}
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses one "BenchmarkName  N  v unit  v unit ..." line.
func parseBenchLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields[0]) < len("Benchmark") || fields[0][:len("Benchmark")] != "Benchmark" {
		return Bench{}, false
	}
	b := Bench{Name: trimCPUSuffix(fields[0]), Metrics: map[string]float64{}}
	if _, err := fmt.Sscan(fields[1], &b.Iterations); err != nil {
		return Bench{}, false
	}
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscan(fields[i], &v); err != nil {
			return Bench{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			val := v
			b.BytesPerOp = &val
		case "allocs/op":
			val := v
			b.AllocsPerOp = &val
		default:
			b.Metrics[unit] = v
		}
	}
	if cycles, ok := b.Metrics["cycles/op"]; ok && cycles > 0 && b.NsPerOp > 0 {
		nsc := b.NsPerOp / cycles
		b.NsPerCycle = &nsc
		if ch, ok := b.Metrics["channels"]; ok && ch > 0 {
			per := nsc / ch
			b.NsPerCyclePerChannel = &per
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

// trimCPUSuffix strips the "-N" that go test appends to every benchmark
// name when GOMAXPROCS is N > 1, so a report matches a baseline recorded
// on a host with any CPU count.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main without the process plumbing, so tests can drive the CLI
// and assert output and exit codes. 0 = success, 1 = bad input or write
// failure, 2 = usage error, 3 = ns/cycle regression beyond tolerance.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	baseline := fs.String("baseline", "", "baseline report JSON to compare ns/cycle against")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional ns/cycle regression vs the baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines in input")
		return 1
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if *baseline != "" {
		return compareBaseline(rep, *baseline, *tolerance, stderr)
	}
	return 0
}

// compareBaseline checks every ns/cycle the fresh report shares with the
// baseline report and reports regressions beyond tolerance. An empty
// intersection fails too: a renamed benchmark must not silently turn the
// regression gate into a no-op.
func compareBaseline(rep Report, path string, tolerance float64, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: baseline: %v\n", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchjson: baseline %s: %v\n", path, err)
		return 1
	}
	fresh := map[string]*float64{}
	for _, b := range rep.Benchmarks {
		fresh[b.Name] = b.NsPerCycle
	}
	compared, regressed := 0, 0
	for _, b := range base.Benchmarks {
		if b.NsPerCycle == nil {
			continue
		}
		cur, ok := fresh[b.Name]
		if !ok || cur == nil {
			continue
		}
		compared++
		ratio := *cur / *b.NsPerCycle
		if ratio > 1+tolerance {
			regressed++
			fmt.Fprintf(stderr, "benchjson: REGRESSION %s: %.1f ns/cycle vs baseline %.1f (%.0f%% > %.0f%% tolerance)\n",
				b.Name, *cur, *b.NsPerCycle, (ratio-1)*100, tolerance*100)
			continue
		}
		fmt.Fprintf(stderr, "benchjson: ok %s: %.1f ns/cycle vs baseline %.1f (%+.0f%%)\n",
			b.Name, *cur, *b.NsPerCycle, (ratio-1)*100)
	}
	if compared == 0 {
		fmt.Fprintf(stderr, "benchjson: baseline %s shares no ns/cycle benchmarks with the input\n", path)
		return 1
	}
	if regressed > 0 {
		return 3
	}
	return 0
}
