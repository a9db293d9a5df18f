package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownFigureIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-fig", "4"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown figure 4") {
		t.Errorf("stderr lacks the diagnosis:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout (figures ran anyway): %q", out.String())
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestFig5JournalResume regenerates Fig. 5 twice against one journal;
// the resumed rerun must print byte-identical tables.
func TestFig5JournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fig5.jsonl")
	base := []string{"-fig", "5", "-scale", "2048", "-journal", journal}

	var first, errb strings.Builder
	if code := run(base, &first, &errb); code != 0 {
		t.Fatalf("first run: exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(first.String(), "=== Fig. 5") {
		t.Fatalf("missing figure header:\n%s", first.String())
	}

	var second strings.Builder
	if code := run(append(base, "-resume"), &second, &errb); code != 0 {
		t.Fatalf("resumed run: exit %d, stderr:\n%s", code, errb.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed Fig. 5 not byte-identical:\nfirst:\n%s\nsecond:\n%s",
			first.String(), second.String())
	}
}

// TestMaxCyclesFailureDegradesGracefully trips the cycle budget on every
// Fig. 5 run and asserts the command reports each failure with its rerun
// command, keeps going, and exits 1.
func TestMaxCyclesFailureDegradesGracefully(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-fig", "5", "-scale", "2048", "-max-cycles", "100"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, errb.String())
	}
	if n := strings.Count(out.String(), "Repro: go run ./cmd/sarasweep -sweep cell"); n != 4 {
		t.Errorf("want 4 failed runs with Repro lines, got %d:\n%s", n, out.String())
	}
	if !strings.Contains(errb.String(), "4 run(s) failed") {
		t.Errorf("stderr lacks the failure tally:\n%s", errb.String())
	}
}

// TestFig7CountsEveryFailedCell trips the cycle budget on all five
// Fig. 7 cells: the command must print each cell's failure with its
// rerun command and count all five, not only the first.
func TestFig7CountsEveryFailedCell(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-fig", "7", "-max-cycles", "100"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, errb.String())
	}
	if n := strings.Count(errb.String(), "Repro: go run ./cmd/sarasweep -sweep cell"); n != 5 {
		t.Errorf("want 5 failed cells with Repro lines, got %d:\n%s", n, errb.String())
	}
	if !strings.Contains(errb.String(), "5 run(s) failed") {
		t.Errorf("stderr lacks the failure tally:\n%s", errb.String())
	}
}

func TestAnalysisOutRequiresAnalyze(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-analysis-out", "x.json"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-analysis-out requires -analyze") {
		t.Errorf("stderr lacks the diagnosis:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout (figures ran anyway): %q", out.String())
	}
}

func TestAnalyzedFig9WritesReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig9.json")
	var out, errb strings.Builder
	code := run([]string{"-fig", "9", "-scale", "2048", "-analyze", "-analysis-window", "4096",
		"-analysis-out", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports map[string]json.RawMessage
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatalf("report is not a JSON object: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("figure 9 produced no analysis reports")
	}
	for label := range reports {
		if !strings.HasPrefix(label, "fig9-") {
			t.Errorf("report label %q lacks the fig9- prefix", label)
		}
	}
}

func TestNonPositiveScaleIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-fig", "5", "-scale", "0"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout (figures ran anyway): %q", out.String())
	}
}

// TestRefusedOptionsAreUsageErrors: a negative -retries once made no
// attempt and printed every Fig. 5 row as bw=0.00 with exit 0; a scale
// too coarse for Fig. 7's slowest data rate leaves that frame shorter
// than one NPI sample. Both are refused before any figure runs.
func TestRefusedOptionsAreUsageErrors(t *testing.T) {
	for _, bad := range [][]string{
		{"-fig", "5", "-retries", "-1"},
		{"-fig", "5", "-timeout", "-1s"},
		{"-fig", "7", "-scale", "14000"},
		{"-scale", "14000"},
	} {
		var out, errb strings.Builder
		if code := run(bad, &out, &errb); code != 2 {
			t.Errorf("%v: exit code %d, want 2", bad, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: usage error wrote to stdout (figures ran anyway): %q", bad, out.String())
		}
	}
}
