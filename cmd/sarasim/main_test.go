package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadCaseAndPolicyAreUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-case", "Z"}, &out, &errb); code != 2 {
		t.Fatalf("bad case: exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown case "Z"`) {
		t.Errorf("stderr lacks the case diagnosis:\n%s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-policy", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad policy: exit code %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit code %d, want 2", code)
	}
}

func TestRunWritesReportAndCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "npi.csv")
	var out, errb strings.Builder
	code := run([]string{"-case", "A", "-policy", "fcfs", "-scale", "2048", "-csv", csv}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "case A / policy fcfs") {
		t.Errorf("report lacks run header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "wrote "+csv) {
		t.Errorf("report lacks CSV confirmation:\n%s", out.String())
	}
}

func TestUnwritableCSVFails(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-scale", "2048", "-csv", filepath.Join(t.TempDir(), "no", "such", "dir.csv")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
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
}

func TestAnalyzeWritesReport(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "rep.json")
	var out, errb strings.Builder
	code := run([]string{"-case", "A", "-policy", "qos", "-scale", "2048",
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
	if _, ok := reports["run"]; !ok {
		t.Fatalf("report lacks the \"run\" entry; keys: %v", reports)
	}

	csvPath := filepath.Join(dir, "rep.csv")
	out.Reset()
	errb.Reset()
	code = run([]string{"-case", "A", "-policy", "qos", "-scale", "2048",
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
	for _, bad := range [][]string{{"-frames", "0"}, {"-frames", "-1"}, {"-scale", "0"}} {
		var out, errb strings.Builder
		if code := run(bad, &out, &errb); code != 2 {
			t.Errorf("%v: exit code %d, want 2", bad, code)
		}
	}
}
