// Command bench is the repository benchmark: it times the SARA simulator
// through its public entry points on four workloads, checks every run's
// simulated outputs against golden digests, and, in a traced run,
// attributes host time to the simulator's layers. See README.md.
//
//	bash bench/run.sh --workload camcorder-a --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh                  # every workload, rounds interleaved
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"ns_per_cycle", "ns"},
	{"segment_ms_p50", "ms"},
	{"segment_ms_p90", "ms"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_bytes_per_frame", "B"},
}

// perLayer are the metrics a traced run reports: host time per layer,
// then the simulated counts and harness figures each layer's time should
// be read against.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ns_per_cycle", "ns"})
	}
	return append(defs, []metricDef{
		{"sim.skipped_frac", "ratio"},
		{"sim.executed_cycles_per_frame", "cycles"},
		{"memctrl.pending_mean", "count"},
		{"memctrl.row_hit_frac", "ratio"},
		{"memctrl.row_conflict_frac", "ratio"},
		{"memctrl.aged_frac", "ratio"},
		{"memctrl.refreshes_per_mcycle", "1/Mcycle"},
		{"noc.grants_per_kcycle", "1/kcycle"},
		{"noc.grant_frac", "ratio"},
		{"dram.bytes_per_cycle", "B/cycle"},
		{"dram.cas_per_activate", "ratio"},
		{"dram.gbps", "GB/s"},
		{"dma.mean_latency_cycles", "cycles"},
		{"dma.inject_stall_frac", "ratio"},
		{"traffic.generated_per_kcycle", "1/kcycle"},
		{"adapt.high_prio_frac", "ratio"},
		{"meter.worst_min_npi", "NPI"},
		{"core.build_ms", "ms"},
		{"exp.build_share", "ratio"},
		{"exp.cpu_util", "ratio"},
		{"exp.cells_per_s", "1/s"},
		{"analysis.samples", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
		{"bench.self_frac", "ratio"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output for one workload; its JSON encoding
// is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options configure one workload run.
type options struct {
	seed      uint64
	seconds   float64
	trace     bool
	size      int // units of measured work per round; 0 = the workload's
	minRounds int
	outDir    string
	segments  string // file the segment times are written to, for a parent run to pool
	golden    golden
	log       io.Writer
}

// run measures w for o.seconds in rounds, o.minRounds at least; in a
// traced run every second round runs under the CPU profile.
func run(w workload, o options) (result, error) {
	size := o.size
	if size == 0 {
		size = w.size
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	t := &tracer{t0: now()}
	var rounds []roundResult
	var profiles []string
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; i < o.minRounds || now().Sub(t.t0) < budget; i++ {
		prof := ""
		if o.trace && i%2 == 1 {
			prof = filepath.Join(o.outDir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, i))
			profiles = append(profiles, prof)
		}
		rounds = append(rounds, runRound(w, t, i, o.seed, size, prof))
	}

	checkDigests(w, rounds, size, o)
	var res result
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		fmt.Fprintf(o.log, "%s round %d: %.1f ns/cycle, set-up %.4f s, traced %t\n", w.name, i, nsPerCycle(r), r.setup.Seconds(), r.traced)
		if r.err != nil {
			fmt.Fprintf(o.log, "%s round %d: %v\n", w.name, i, r.err)
		}
	}
	res.Correct = res.Failed == 0

	plain, traced := splitRounds(rounds)
	if !o.trace {
		res.Metrics = endToEndMetrics(plain, o.log)
		if o.segments != "" {
			return res, writeJSON(o.segments, pooledSegments(plain))
		}
		return res, nil
	}
	shares, err := foldProfiles(profiles)
	if err != nil {
		return res, err
	}
	res.Metrics = perLayerMetrics(plain, traced, shares)
	return res, writeSpans(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, o.seed, t.spans)
}

// checkDigests compares each round's digests with the golden ones, and
// digests of one seed with each other: the simulator is deterministic, so
// a repeat must reproduce its outputs bit for bit. A round that disagrees
// counts all its operations as failed.
func checkDigests(w workload, rounds []roundResult, size int, o options) {
	first := map[uint64]string{}
	unchecked := map[uint64]bool{}
	for i := range rounds {
		r := &rounds[i]
		for _, d := range r.digests {
			want, ok := o.golden.lookup(w.name, d.seed)
			if !ok || (w.sizedDigest && size != w.size) {
				unchecked[d.seed] = true
				want, ok = first[d.seed]
			}
			if !ok {
				first[d.seed] = d.digest
				continue
			}
			if d.digest != want {
				fmt.Fprintf(o.log, "%s round %d seed %d: digest %s, want %s\n", w.name, i, d.seed, d.digest, want)
				r.failed = r.attempted
			}
		}
	}
	if len(unchecked) > 0 {
		seeds := make([]uint64, 0, len(unchecked))
		for s := range unchecked {
			seeds = append(seeds, s)
		}
		slices.Sort(seeds)
		fmt.Fprintf(o.log, "%s: seeds %v unchecked (no golden digest); repeats checked against each other\n", w.name, seeds)
	}
}

func splitRounds(rounds []roundResult) (plain, traced []roundResult) {
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	return plain, traced
}

// perRound collects f over rounds.
func perRound(rounds []roundResult, f func(r roundResult) float64) []float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return xs
}

func nsPerCycle(r roundResult) float64 { return ratio(float64(r.measured), r.cycles) }

// measuredRounds drops the rounds that failed before their measured phase.
func measuredRounds(rounds []roundResult) []roundResult {
	var m []roundResult
	for _, r := range rounds {
		if r.cycles > 0 {
			m = append(m, r)
		}
	}
	return m
}

// pooledSegments is every closed-loop call time of the rounds, in ms.
func pooledSegments(rounds []roundResult) []float64 {
	var segs []float64
	for _, r := range rounds {
		segs = append(segs, r.segments...)
	}
	return segs
}

// endToEndMetrics are medians over the rounds that measured anything,
// except the segment percentiles, which pool every such round's calls.
func endToEndMetrics(rounds []roundResult, log io.Writer) map[string]metricValue {
	rounds = measuredRounds(rounds)
	v := map[string]float64{
		"ns_per_cycle":          median(perRound(rounds, nsPerCycle)),
		"setup_s":               median(perRound(rounds, func(r roundResult) float64 { return r.setup.Seconds() })),
		"live_heap_mb":          median(perRound(rounds, func(r roundResult) float64 { return r.liveHeap / 1e6 })),
		"alloc_bytes_per_frame": median(perRound(rounds, func(r roundResult) float64 { return ratio(r.allocBytes, r.frames) })),
	}
	segmentPercentiles(v, pooledSegments(rounds), log)
	return withUnits(v, endToEnd)
}

// segmentPercentiles sets the segment metrics from pooled call times and
// logs the sample count behind the tail percentile.
func segmentPercentiles(v map[string]float64, segs []float64, log io.Writer) {
	v["segment_ms_p50"], _ = quantile(segs, 0.5)
	p90, beyond := quantile(segs, 0.9)
	v["segment_ms_p90"] = p90
	fmt.Fprintf(log, "segment_ms_p90: %d segments, %d beyond\n", len(segs), beyond)
	if beyond < 10 {
		fmt.Fprintf(log, "segment_ms_p90: fewer than 10 samples beyond it; lengthen --seconds\n")
	}
}

// perLayerMetrics combines the traced rounds' profile shares, spans and
// simulated counts. Each layer's self time is its share of the profile
// samples times the traced ns_per_cycle, so the layers sum to it.
func perLayerMetrics(plain, traced []roundResult, shares map[string]time.Duration) map[string]metricValue {
	v := map[string]float64{}
	traced = measuredRounds(traced)
	tracedNs := median(perRound(traced, nsPerCycle))
	var total time.Duration
	for _, l := range layers {
		total += shares[l]
	}
	for _, l := range layers {
		v[l+".self_ns_per_cycle"] = ratio(float64(shares[l]), float64(total)) * tracedNs
	}
	v["trace.overhead_frac"] = ratio(tracedNs, median(perRound(measuredRounds(plain), nsPerCycle))) - 1
	v["core.build_ms"] = median(perRound(traced, func(r roundResult) float64 { return r.build.Seconds() * 1e3 }))
	v["exp.build_share"] = median(perRound(traced, func(r roundResult) float64 { return ratio(r.setup.Seconds(), r.measured.Seconds()) }))
	v["exp.cpu_util"] = median(perRound(traced, func(r roundResult) float64 { return r.cpuUtil }))
	v["runtime.gc_cpu_frac"] = median(perRound(traced, func(r roundResult) float64 { return r.gcCPUFrac }))
	v["bench.self_frac"] = median(perRound(traced, func(r roundResult) float64 { return r.selfFrac }))
	for _, d := range perLayer {
		if _, ok := traced[0].model[d.name]; ok {
			v[d.name] = median(perRound(traced, func(r roundResult) float64 { return r.model[d.name] }))
		}
	}
	return withUnits(v, perLayer)
}

// withUnits attaches units to every declared metric; a declared metric
// the workload has no value for reads 0.
func withUnits(v map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}

func writeSpans(path, workload string, seed uint64, spans []span) error {
	return writeJSON(path, struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, prefix string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-36s %14.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: every workload, in child processes)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured time per workload run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	rounds := fs.Int("rounds", 3, "runs per workload when running every workload")
	asJSON := fs.Bool("json", false, "print the every-workload summary as JSON")
	update := fs.Bool("update-golden", false, "rewrite "+goldenFile+" from fresh runs")
	segments := fs.String("segments-out", "", "write the run's segment times (ms) to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "--trace takes 0 or 1")
		return 2
	}
	if *update {
		if err := updateGolden(goldenFile); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *rounds, *asJSON, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	g, err := loadGolden(goldenFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res, err := run(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, minRounds: 3,
		outDir: "out", segments: *segments, golden: g, log: stderr})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printMetrics(stderr, w.name+" ", res.Metrics)
	b, err := json.Marshal(res)
	if err != nil { // a NaN or infinite metric
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload rounds times, one child process at a time,
// interleaving the workloads so host drift lands on each alike. It
// reports each metric's median over the runs, except the segment
// percentiles, which pool the calls of every run.
func runAll(seed uint64, seconds float64, trace, rounds int, asJSON bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	all := map[string][]result{}
	segs := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			segFile := ""
			if trace == 0 {
				segFile = filepath.Join("out", fmt.Sprintf("segments-%s-%d.json", w.name, r))
			}
			res, err := runChild(exe, w.name, seed, seconds, trace, segFile, stderr)
			if err == nil && segFile != "" {
				var xs []float64
				err = readJSON(segFile, &xs)
				segs[w.name] = append(segs[w.name], xs...)
			}
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
				return 1
			}
			all[w.name] = append(all[w.name], res)
		}
	}

	summary := map[string]result{}
	code := 0
	for _, w := range workloads {
		runs := all[w.name]
		s := result{Correct: true, Metrics: map[string]metricValue{}}
		for _, r := range runs {
			s.Correct = s.Correct && r.Correct
			s.Attempted += r.Attempted
			s.Failed += r.Failed
		}
		v := map[string]float64{}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			if _, ok := runs[0].Metrics[d.name]; !ok {
				continue
			}
			v[d.name] = median(perRun(runs, d.name))
		}
		if trace == 0 {
			fmt.Fprintf(stderr, "%s ", w.name)
			segmentPercentiles(v, segs[w.name], stderr)
		}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			if x, ok := v[d.name]; ok {
				s.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
			}
		}
		if !s.Correct {
			code = 1
		}
		summary[w.name] = s
	}
	if asJSON {
		b, _ := json.Marshal(summary)
		fmt.Fprintln(stdout, string(b))
		return code
	}
	for _, w := range workloads {
		s := summary[w.name]
		fmt.Fprintf(stdout, "%s: correct=%t attempted=%d failed=%d (median of %d runs", w.name, s.Correct, s.Attempted, s.Failed, rounds)
		if n := len(segs[w.name]); n > 0 {
			fmt.Fprintf(stdout, "; percentiles over %d segments", n)
		}
		fmt.Fprintln(stdout, ")")
		printMetrics(stdout, "  ", s.Metrics)
	}
	return code
}

// perRun collects one metric over runs.
func perRun(runs []result, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name].Value
	}
	return xs
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// runChild runs one workload in a child process and parses the result
// from the last line of its standard output.
func runChild(exe, name string, seed uint64, seconds float64, trace int, segFile string, stderr io.Writer) (result, error) {
	var out bytes.Buffer
	args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if segFile != "" {
		args = append(args, "--segments-out", segFile)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return res, nil
}
