package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fastCell keeps CLI-level simulations cheap: a high time-scale divisor
// shortens the frame while driving the exact production code path.
var fastCell = []string{"-sweep", "cell", "-case", "A", "-policy", "fcfs", "-scale", "2048"}

func TestUnknownSweepIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-sweep", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown sweep "bogus"`) {
		t.Errorf("stderr lacks the unknown-sweep diagnosis:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of sarasweep") {
		t.Errorf("stderr lacks usage text:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", out.String())
	}
}

func TestUnknownCaseAndPolicyAreUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-sweep", "cell", "-case", "Z"}, &out, &errb); code != 2 {
		t.Fatalf("bad case: exit code %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-sweep", "cell", "-policy", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad policy: exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown policy") {
		t.Errorf("stderr lacks policy diagnosis:\n%s", errb.String())
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestCellRunSucceeds(t *testing.T) {
	var out, errb strings.Builder
	if code := run(fastCell, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "case A / policy fcfs") {
		t.Errorf("cell output lacks the run header:\n%s", out.String())
	}
}

func TestCellMaxCyclesFailureCarriesRepro(t *testing.T) {
	var out, errb strings.Builder
	args := append([]string{"-max-cycles", "100"}, fastCell...)
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "cycle budget exceeded") {
		t.Errorf("stderr lacks the watchdog diagnosis:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "Repro: go run ./cmd/sarasweep -sweep cell") {
		t.Errorf("stderr lacks the standardized Repro line:\n%s", errb.String())
	}
}

// TestCellJournalResume drives the journal through the CLI: the second,
// resumed invocation serves the cell from the journal and prints exactly
// the bytes the first produced.
func TestCellJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "cli.jsonl")
	args := append([]string{"-journal", journal}, fastCell...)

	var first, errb strings.Builder
	if code := run(args, &first, &errb); code != 0 {
		t.Fatalf("first run: exit %d, stderr:\n%s", code, errb.String())
	}
	if st, err := os.Stat(journal); err != nil || st.Size() == 0 {
		t.Fatalf("first run left no journal: %v", err)
	}

	var second strings.Builder
	args = append([]string{"-resume"}, args...)
	if code := run(args, &second, &errb); code != 0 {
		t.Fatalf("resumed run: exit %d, stderr:\n%s", code, errb.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed output not byte-identical:\nfirst:\n%s\nsecond:\n%s",
			first.String(), second.String())
	}
}

func TestAnalysisOutRequiresAnalyze(t *testing.T) {
	var out, errb strings.Builder
	if code := run(append(fastCell, "-analysis-out", "x.json"), &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-analysis-out requires -analyze") {
		t.Errorf("stderr lacks the diagnosis:\n%s", errb.String())
	}
}

// TestDefaultCellAnalysisOutRequiresAnalyze: the same check with no cell
// field and no -sweep given, as the single-run inspector is started bare.
func TestDefaultCellAnalysisOutRequiresAnalyze(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "cell", "-analysis-out", "x.json"},
		{"-analysis-out", "x.json"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit code %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), "-analysis-out requires -analyze") {
			t.Errorf("%v: stderr lacks the diagnosis:\n%s", args, errb.String())
		}
	}
}

func TestAnalyzedCellWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.json")
	var out, errb strings.Builder
	code := run(append(fastCell, "-analyze", "-analysis-window", "4096", "-analysis-out", path), &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("output lacks the report confirmation:\n%s", out.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports map[string]json.RawMessage
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatalf("report is not a JSON object: %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("cell sweep wrote %d reports, want 1; keys: %v", len(reports), reports)
	}
}

func TestMonitorFlagServesStatus(t *testing.T) {
	var out, errb strings.Builder
	code := run(append(append([]string{}, fastCell...), "-monitor", "127.0.0.1:0"), &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "monitor: http://127.0.0.1:") {
		t.Errorf("output lacks the monitor address line:\n%s", out.String())
	}
}

// TestBadFrameCountsAreUsageErrors: a negative -warmup once reached
// RunFramesChecked, whose cycle conversion wrapped it to a horizon near
// 2^64, so the sweep never finished; zero -measure and -scale were
// silently replaced by defaults.
func TestBadFrameCountsAreUsageErrors(t *testing.T) {
	for _, bad := range [][]string{{"-warmup", "-1"}, {"-measure", "0"}, {"-measure", "-2"}, {"-scale", "0"}} {
		args := append(append([]string{}, fastCell...), bad...)
		done := make(chan int, 1)
		var out, errb strings.Builder
		go func() { done <- run(args, &out, &errb) }()
		select {
		case code := <-done:
			if code != 2 {
				t.Errorf("%v: exit code %d, want 2", bad, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: still running after 5 s, want a usage error", bad)
		}
	}
}

// TestBadCellFieldsAreUsageErrors: -soc-scale 3 once failed inside the
// cell with a config panic and exit 1, -soc-scale 0 and -2 and -freq -5
// silently ran the defaults, and -retries -1 printed an unmeasured cell.
// All are refused before any build.
func TestBadCellFieldsAreUsageErrors(t *testing.T) {
	for _, bad := range [][]string{
		{"-soc-scale", "3"}, {"-soc-scale", "0"}, {"-soc-scale", "-2"}, {"-soc-scale", "128"},
		{"-freq", "-5"}, {"-retries", "-1"}, {"-scale", "20000"},
	} {
		args := append(append([]string{}, fastCell...), bad...)
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit code %d, want 2", bad, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: usage error wrote to stdout: %q", bad, out.String())
		}
	}
}

func TestRunWritesReportAndCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "npi.csv")
	var out, errb strings.Builder
	code := run(append(append([]string{}, fastCell...), "-csv", csv), &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "case A / policy fcfs") {
		t.Errorf("report lacks run header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "wrote "+csv) {
		t.Errorf("report lacks CSV confirmation:\n%s", out.String())
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "Display") {
		t.Errorf("CSV lacks the Display series:\n%.400s", blob)
	}
}

func TestBadCaseAndPolicyAreUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-sweep", "cell", "-case", "Z"}, &out, &errb); code != 2 {
		t.Fatalf("bad case: exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown case "Z"`) {
		t.Errorf("stderr lacks the case diagnosis:\n%s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-sweep", "cell", "-policy", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad policy: exit code %d, want 2", code)
	}
	if code := run([]string{"-sweep", "cell", "-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit code %d, want 2", code)
	}
}

// TestAnalyzeWritesReport writes the cell's analysis report once as JSON,
// keyed by the cell's label, and once as the system CSV.
func TestAnalyzeWritesReport(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "rep.json")
	var out, errb strings.Builder
	code := run([]string{"-sweep", "cell", "-case", "A", "-policy", "qos", "-scale", "2048",
		"-analyze", "-analysis-window", "4096", "-analysis-out", jsonPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var reports map[string]json.RawMessage
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatalf("report is not a JSON object: %v", err)
	}
	if _, ok := reports["case A / policy qos / seed 1"]; !ok {
		t.Fatalf("report is not labeled with the cell; keys: %v", reports)
	}

	csvPath := filepath.Join(dir, "rep.csv")
	out.Reset()
	errb.Reset()
	code = run([]string{"-sweep", "cell", "-case", "A", "-policy", "qos", "-scale", "2048",
		"-analyze", "-analysis-window", "4096", "-analysis-out", csvPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("CSV run: exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "worst_npi") {
		t.Errorf("system CSV lacks the worst_npi column:\n%s", csv)
	}
}

func TestNonPositiveFramesAndScaleAreUsageErrors(t *testing.T) {
	for _, bad := range [][]string{{"-measure", "0"}, {"-measure", "-1"}, {"-scale", "0"}} {
		var out, errb strings.Builder
		if code := run(append([]string{"-sweep", "cell"}, bad...), &out, &errb); code != 2 {
			t.Errorf("%v: exit code %d, want 2", bad, code)
		}
	}
}

func TestUnwritableCSVFails(t *testing.T) {
	var out, errb strings.Builder
	code := run(append(append([]string{}, fastCell...), "-csv", filepath.Join(t.TempDir(), "no", "such", "dir.csv")), &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

// TestRunsWithNoMeasuredCyclesAreUsageErrors: each of these once printed
// "min NPI 0.000 FAIL" for every core and exited 0. At -scale 20000 the
// 1,555-cycle frame holds no 2,048-cycle NPI sample, at -scale 1e8 the
// frame is 0 cycles, and 2^62 frames wrap the horizon to 0.
func TestRunsWithNoMeasuredCyclesAreUsageErrors(t *testing.T) {
	for _, bad := range [][]string{
		{"-scale", "20000"},
		{"-scale", "100000000"},
		{"-measure", "4611686018427387904"},
		{"-analyze", "-analysis-window", "18446744073709551615"},
	} {
		var out, errb strings.Builder
		if code := run(append([]string{"-sweep", "cell"}, bad...), &out, &errb); code != 2 {
			t.Errorf("%v: exit code %d, want 2", bad, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: usage error wrote to stdout: %q", bad, out.String())
		}
	}
}

// TestUnreadFlagsAreUsageErrors: each sweep once ran with any flag it
// never reads, so `-sweep delta -journal j.jsonl` wrote no journal and
// `-sweep seeds -seed 5` printed the seed-1 fan-out, silently.
func TestUnreadFlagsAreUsageErrors(t *testing.T) {
	for _, c := range []struct {
		sweep string
		flag  []string
	}{
		{"seeds", []string{"-seed", "5"}},
		{"seeds", []string{"-case", "B"}},
		{"seeds", []string{"-policy", "fcfs"}},
		{"seeds", []string{"-csv", "x.csv"}},
		{"delta", []string{"-journal", "j.jsonl"}},
		{"delta", []string{"-retries", "2"}},
		{"delta", []string{"-resume"}},
		{"delta", []string{"-warmup", "3"}},
		{"bits", []string{"-measure", "2"}},
		{"aging", []string{"-saturated"}},
		{"scale", []string{"-soc-scale", "2"}},
		{"refresh", []string{"-refresh"}},
		{"refresh", []string{"-freq", "1500"}},
	} {
		args := append([]string{"-sweep", c.sweep}, c.flag...)
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if want := c.flag[0] + " is not read by -sweep " + c.sweep; !strings.Contains(errb.String(), want) {
			t.Errorf("%v: stderr lacks %q:\n%s", args, want, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: usage error wrote to stdout: %q", args, out.String())
		}
	}
}

// TestAblationsReadSeed: the five ablations once built every config at
// the default seed, so -seed 5 printed the seed-1 tables byte for byte.
func TestAblationsReadSeed(t *testing.T) {
	for _, sweep := range []string{"delta", "bits", "aging", "refresh", "scale"} {
		var out, errb strings.Builder
		if code := run([]string{"-sweep", sweep, "-scale", "1024", "-seed", "5"}, &out, &errb); code != 0 {
			t.Fatalf("%s: exit code %d, want 0; stderr:\n%s", sweep, code, errb.String())
		}
		want := readGolden(t, sweep)
		if got := out.String(); sweepColumns(sweep, got) == sweepColumns(sweep, want) {
			t.Errorf("%s -seed 5 printed the seed-1 table:\n%s", sweep, got)
		}
	}
}

// TestSweepOutputPinned compares each sweep's output at -scale 1024, and
// the cell sweep's refresh-shortfall report, against testdata. The scale
// sweep's ns/cycle columns are host time, so only its first four
// columns are compared.
func TestSweepOutputPinned(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"delta", []string{"-sweep", "delta", "-scale", "1024"}},
		{"bits", []string{"-sweep", "bits", "-scale", "1024"}},
		{"aging", []string{"-sweep", "aging", "-scale", "1024"}},
		{"refresh", []string{"-sweep", "refresh", "-scale", "1024"}},
		{"seeds", []string{"-sweep", "seeds", "-scale", "1024"}},
		{"scale", []string{"-sweep", "scale", "-scale", "1024"}},
		{"cell-b-fcfs-refresh", []string{"-sweep", "cell", "-case", "B", "-policy", "fcfs", "-refresh", "-scale", "512", "-measure", "2"}},
	} {
		var out, errb strings.Builder
		if code := run(c.args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit code %d, want 0; stderr:\n%s", c.args, code, errb.String())
		}
		want := readGolden(t, c.golden)
		if got := out.String(); sweepColumns(c.golden, got) != sweepColumns(c.golden, want) {
			t.Errorf("%v: output differs from testdata/%s.txt:\ngot:\n%s\nwant:\n%s", c.args, c.golden, got, want)
		}
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// sweepColumns is the part of a sweep's output that the simulation
// decides: all of it, except for the scale sweep, whose columns after
// the bandwidth are host time.
func sweepColumns(sweep, out string) string {
	if sweep != "scale" {
		return out
	}
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 4 {
			b.WriteString(strings.Join(f[:4], " ") + "\n")
		}
	}
	return b.String()
}
