package exp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/memctrl"
)

// TestRunCellsAnalyzesAndMonitors drives the supervised sweep path with
// both observability options on: every completed cell must carry a
// windowed analysis report, and the monitor must have tracked the cells
// through to "done" with their final snapshots still served.
func TestRunCellsAnalyzesAndMonitors(t *testing.T) {
	t.Parallel()
	mon := analysis.NewMonitor()
	if err := mon.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	opt := Options{ScaleDiv: 512, Workers: 2, Analyze: true, AnalysisWindow: 2048, Monitor: mon}.apply()
	cells := []Cell{
		{Case: config.CaseA, Policy: memctrl.FCFS},
		{Case: config.CaseA, Policy: memctrl.QoS},
	}
	runs, err := RunCells(cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("cell %v failed: %v", r.Policy, r.Err)
		}
		if r.Analysis == nil {
			t.Fatalf("cell %v has no analysis report", r.Policy)
		}
		if r.Analysis.Samples == 0 {
			t.Fatalf("cell %v report has no samples", r.Policy)
		}
		if r.Analysis.System.WorstNPI.Len() != r.Analysis.Samples {
			t.Fatalf("cell %v: system series %d points, want %d",
				r.Policy, r.Analysis.System.WorstNPI.Len(), r.Analysis.Samples)
		}
	}

	resp, err := http.Get("http://" + mon.Addr() + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Planned int `json:"planned"`
		Running int `json:"running"`
		Done    int `json:"done"`
		Failed  int `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Planned != 2 || st.Done != 2 || st.Running != 0 || st.Failed != 0 {
		t.Fatalf("final status %+v, want planned 2 done 2", st)
	}

	resp2, err := http.Get("http://" + mon.Addr() + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var entries []analysis.RunStatus
	if err := json.NewDecoder(resp2.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d monitored runs, want 2", len(entries))
	}
	for _, e := range entries {
		if e.State != "done" {
			t.Fatalf("run %q state %q, want done", e.Label, e.State)
		}
		if e.Snapshot == nil || len(e.Snapshot.NPI) == 0 {
			t.Fatalf("run %q kept no final snapshot", e.Label)
		}
	}
}

// TestMonitorOnlyPublishesBackpressure runs a case-A cell with a monitor
// and no Analyze: the cell keeps no report, and the snapshot it publishes
// carries the router backpressure the analyzer reads from the routers'
// full-pop counters.
func TestMonitorOnlyPublishesBackpressure(t *testing.T) {
	t.Parallel()
	mon := analysis.NewMonitor()
	if err := mon.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	opt := Options{ScaleDiv: 512, AnalysisWindow: 8192, Monitor: mon}
	runs, err := RunCells([]Cell{{Case: config.CaseA, Policy: memctrl.QoS}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r := runs[0]; r.Err != nil || r.Analysis != nil {
		t.Fatalf("monitor-only cell: err %v, report kept %v; want a run without a report", r.Err, r.Analysis != nil)
	}
	resp, err := http.Get("http://" + mon.Addr() + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []analysis.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Snapshot == nil {
		t.Fatalf("monitored runs %+v, want one with a snapshot", entries)
	}
	if bp := entries[0].Snapshot.Backpressure; bp <= 0 {
		t.Fatalf("snapshot backpressure %v, want > 0 on case A", bp)
	}
}

// TestAnalyzedRunCellsIdenticalAcrossWorkers pins that analyzed cells fan
// out: each analyzer reads only its own cell's System, so an analyzed
// grid gives the same runs, analysis reports included, on one worker and
// on two running cells concurrently.
func TestAnalyzedRunCellsIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	cells := []Cell{
		{Case: config.CaseA, Policy: memctrl.FCFS},
		{Case: config.CaseA, Policy: memctrl.QoS},
		{Case: config.CaseB, Policy: memctrl.FRFCFS},
		{Case: config.CaseB, Policy: memctrl.QoSRB},
	}
	run := func(workers int) []PolicyRun {
		opt := Options{ScaleDiv: 512, Workers: workers, Analyze: true, AnalysisWindow: 2048, Refresh: true}
		if got := opt.apply().Workers; got != workers {
			t.Fatalf("Analyze changed Workers from %d to %d", workers, got)
		}
		runs, err := RunCells(cells, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if r.Err != nil || r.Analysis == nil || r.Analysis.Samples == 0 {
				t.Fatalf("workers=%d cell %v: err %v, report %v; want a sampled report", workers, r.Policy, r.Err, r.Analysis != nil)
			}
		}
		return runs
	}
	serial, fanned := run(1), run(2)
	if !reflect.DeepEqual(serial, fanned) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], fanned[i]) {
				t.Fatalf("cell %d (%v) differs between 1 and 2 workers", i, cells[i].Policy)
			}
		}
		t.Fatal("analyzed runs differ between 1 and 2 workers")
	}
}

// TestPolicyRunAnalysisRoundTripsJSON pins the export contract: an
// analyzed PolicyRun survives a JSON round trip with its report intact
// (the journal and the CLI -analysis-out path both rely on this).
func TestPolicyRunAnalysisRoundTripsJSON(t *testing.T) {
	t.Parallel()
	opt := Options{ScaleDiv: 512, Analyze: true, AnalysisWindow: 4096}.apply()
	run := RunPolicy(config.CaseA, memctrl.QoS, opt)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Analysis == nil {
		t.Fatal("analyzed run has no report")
	}
	blob, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	var back PolicyRun
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Analysis == nil {
		t.Fatal("report lost in JSON round trip")
	}
	if back.Analysis.Samples != run.Analysis.Samples ||
		back.Analysis.Window != run.Analysis.Window {
		t.Fatalf("report shape changed in round trip: %d/%d samples, %d/%d window",
			back.Analysis.Samples, run.Analysis.Samples, back.Analysis.Window, run.Analysis.Window)
	}
	if back.Analysis.System.WorstNPI.Len() != run.Analysis.System.WorstNPI.Len() {
		t.Fatal("system series lost in JSON round trip")
	}
}

// TestJournalWithEdgeFieldsLoads resumes from a journal line recorded
// when reports still carried "edges_enabled" and per-router "credits":
// the line loads, the cell's key still matches it, and its report equals
// a fresh run's report of the same cell.
func TestJournalWithEdgeFieldsLoads(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile(filepath.Join("testdata", "journal_with_edge_fields.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"edges_enabled"`, `"credits"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("fixture lacks the legacy %s field", key)
		}
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	opt := Options{ScaleDiv: 1024, Analyze: true, AnalysisWindow: 4096}
	c := Cell{Case: config.CaseA, Policy: memctrl.QoS}
	old, ok := j.Lookup(c.Key(opt))
	if !ok {
		t.Fatal("journaled cell not found under its key")
	}
	if old.Analysis == nil || old.Analysis.Samples == 0 {
		t.Fatal("journaled run lost its analysis report")
	}
	runs, err := RunCells([]Cell{c}, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(runs[0].Analysis)
	want, _ := json.Marshal(old.Analysis)
	if !bytes.Equal(got, want) {
		t.Fatal("fresh report differs from the journaled one")
	}
}
