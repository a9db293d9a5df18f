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
