package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sara
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorThroughput            	    2000	    258009 ns/op	        48.20 %skipped	      1000 cycles/op	     503 B/op	       0 allocs/op
BenchmarkLoadedPhaseThroughputScaled/4x 	    2000	   2201684 ns/op	         8.000 channels	      1000 cycles/op	    1694 B/op	       0 allocs/op
PASS
ok  	sara	33.601s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	if rep.Context["cpu"] != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu context %q", rep.Context["cpu"])
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimulatorThroughput" || b.Iterations != 2000 || b.NsPerOp != 258009 {
		t.Fatalf("first benchmark %+v", b)
	}
	if b.NsPerCycle == nil || *b.NsPerCycle != 258.009 {
		t.Fatalf("ns/cycle %v, want 258.009", b.NsPerCycle)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
		t.Fatalf("allocs/op %v, want 0", b.AllocsPerOp)
	}
	if b.Metrics["%skipped"] != 48.20 {
		t.Fatalf("%%skipped metric %v", b.Metrics["%skipped"])
	}
	s := rep.Benchmarks[1]
	if s.NsPerCyclePerChannel == nil || *s.NsPerCyclePerChannel != 2201.684/8 {
		t.Fatalf("per-channel cost %v", s.NsPerCyclePerChannel)
	}

	// The document round-trips with the conventional keys present.
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ns_per_op"`, `"ns_per_cycle"`, `"allocs_per_op"`, `"ns_per_cycle_per_channel"`} {
		if !strings.Contains(string(enc), key) {
			t.Fatalf("encoded report lacks %s:\n%s", key, enc)
		}
	}
}

func TestParseRejectsGarbageQuietly(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBad x y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage", len(rep.Benchmarks))
	}
}

func TestRunStdinToStdout(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("document holds %d benchmarks, want 2", len(rep.Benchmarks))
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("no benches here\n"), &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "no benchmark lines") {
		t.Errorf("stderr lacks the empty-input diagnosis:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("bad input still wrote a document: %q", out.String())
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"/no/such/bench.out"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// writeBaseline emits a baseline report whose two sample benchmarks run
// at the given ns/cycle values and returns its path.
func writeBaseline(t *testing.T, nsPerCycle1, nsPerCycle2 float64) string {
	t.Helper()
	mk := func(name string, nsc float64) Bench {
		return Bench{Name: name, NsPerCycle: &nsc}
	}
	rep := Report{Benchmarks: []Bench{
		mk("BenchmarkSimulatorThroughput", nsPerCycle1),
		mk("BenchmarkLoadedPhaseThroughputScaled/4x", nsPerCycle2),
	}}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBaselineWithinTolerancePasses(t *testing.T) {
	// The sample runs at 258.009 and 2201.684/8 ns/cycle; a baseline 10%
	// below both is inside the default 25% tolerance.
	path := writeBaseline(t, 258.009/1.1, 2201.684/1.1)
	var out, errb strings.Builder
	if code := run([]string{"-baseline", path}, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "ok BenchmarkSimulatorThroughput") {
		t.Errorf("stderr lacks the per-benchmark comparison:\n%s", errb.String())
	}
}

func TestBaselineRegressionFails(t *testing.T) {
	// A baseline 40% below the sample's first benchmark trips the gate.
	path := writeBaseline(t, 258.009/1.4, 2201.684)
	var out, errb strings.Builder
	if code := run([]string{"-baseline", path}, strings.NewReader(sample), &out, &errb); code != 3 {
		t.Fatalf("exit code %d, want 3; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "REGRESSION BenchmarkSimulatorThroughput") {
		t.Errorf("stderr does not name the regressed benchmark:\n%s", errb.String())
	}
}

func TestBaselineToleranceFlag(t *testing.T) {
	// The same 40% regression passes once the tolerance is raised to 50%.
	path := writeBaseline(t, 258.009/1.4, 2201.684)
	var out, errb strings.Builder
	if code := run([]string{"-baseline", path, "-tolerance", "0.5"},
		strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
}

// TestBaselineIgnoresCPUSuffix: go test names every benchmark with a
// "-N" suffix when GOMAXPROCS is N > 1; the baseline's names carry none,
// so the suffix must not turn the comparison into a disjoint-names
// failure, and a real regression must still trip the gate.
func TestBaselineIgnoresCPUSuffix(t *testing.T) {
	suffixed := strings.NewReplacer(
		"BenchmarkSimulatorThroughput ", "BenchmarkSimulatorThroughput-2 ",
		"BenchmarkLoadedPhaseThroughputScaled/4x ", "BenchmarkLoadedPhaseThroughputScaled/4x-2 ",
	).Replace(sample)
	if suffixed == sample {
		t.Fatal("sample lines not rewritten")
	}
	rep, err := parse(strings.NewReader(suffixed))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Benchmarks[1].Name; got != "BenchmarkLoadedPhaseThroughputScaled/4x" {
		t.Fatalf("parsed name %q, want the suffix stripped", got)
	}

	path := writeBaseline(t, 258.009/1.1, 2201.684/1.1)
	var out, errb strings.Builder
	if code := run([]string{"-baseline", path}, strings.NewReader(suffixed), &out, &errb); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	for _, name := range []string{"BenchmarkSimulatorThroughput", "BenchmarkLoadedPhaseThroughputScaled/4x"} {
		if !strings.Contains(errb.String(), "ok "+name+":") {
			t.Errorf("stderr lacks an ok line for %s:\n%s", name, errb.String())
		}
	}

	slow := writeBaseline(t, 258.009/2, 2201.684)
	errb.Reset()
	if code := run([]string{"-baseline", slow}, strings.NewReader(suffixed), &out, &errb); code != 3 {
		t.Fatalf("2x-slower input: exit code %d, want 3; stderr:\n%s", code, errb.String())
	}
}

func TestBaselineDisjointNamesFail(t *testing.T) {
	// A baseline sharing no benchmark names must fail loudly, not pass
	// vacuously.
	mk := Bench{Name: "BenchmarkRenamedAway", NsPerCycle: new(float64)}
	*mk.NsPerCycle = 100
	enc, err := json.Marshal(Report{Benchmarks: []Bench{mk}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-baseline", path}, strings.NewReader(sample), &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "shares no ns/cycle benchmarks") {
		t.Errorf("stderr lacks the disjoint-names diagnosis:\n%s", errb.String())
	}
}

func TestBaselineMissingFileFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-baseline", "/no/such/baseline.json"},
		strings.NewReader(sample), &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestRunRejectsUnwritableOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-o", "/no/such/dir/bench.json"}, strings.NewReader(sample), &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
