package exp

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sara/internal/config"
	"sara/internal/memctrl"
)

// chaosOptions is a reduced-fidelity option set for the fault-injection
// tests: half the default frame length keeps the many sweeps here cheap
// while exercising exactly the production code paths.
func chaosOptions() Options {
	return Options{ScaleDiv: 512, Workers: 1}.apply()
}

// smallGrid is the 2x2 sweep the containment and resume tests run.
func smallGrid() []Cell {
	return []Cell{
		{Case: config.CaseA, Policy: memctrl.FCFS},
		{Case: config.CaseA, Policy: memctrl.QoS},
		{Case: config.CaseB, Policy: memctrl.FCFS},
		{Case: config.CaseB, Policy: memctrl.QoS},
	}
}

// TestPanicContainedToCell injects a panic into one cell of a grid and
// asserts the supervisor converts it into that cell's RunError — with the
// rerun command — while every other cell completes normally.
func TestPanicContainedToCell(t *testing.T) {
	t.Parallel()
	opt := chaosOptions()
	opt.Chaos = func(c Cell, attempt int) Chaos {
		if c.Case == config.CaseA && c.Policy == memctrl.QoS {
			return Chaos{PanicAtCycle: 1000}
		}
		return Chaos{}
	}
	runs, err := RunCells(smallGrid(), opt)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	fails := Failed(runs)
	if len(fails) != 1 {
		t.Fatalf("want exactly 1 failed cell, got %d", len(fails))
	}
	re := fails[0]
	if !strings.Contains(re.Reason, "injected panic") {
		t.Errorf("reason %q does not name the injected panic", re.Reason)
	}
	if re.Stack == "" {
		t.Error("panic RunError carries no stack")
	}
	if !strings.Contains(re.Repro, "go run ./cmd/sarasweep -sweep cell") ||
		!strings.Contains(re.Repro, "-policy qos") {
		t.Errorf("repro command %q does not rebuild the failing cell", re.Repro)
	}
	if !strings.Contains(re.Error(), "Repro: ") {
		t.Errorf("RunError.Error() lacks the standardized Repro line:\n%s", re.Error())
	}
	for _, r := range runs {
		if r.Err != nil {
			continue
		}
		if r.BandwidthGBps <= 0 || len(r.MinNPI) == 0 {
			t.Errorf("surviving cell %s/%s carries no measurements", r.Case, r.Policy)
		}
	}
	out := FormatRun(runs[1])
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "Repro: ") {
		t.Errorf("FormatRun of failed cell missing failure/Repro line:\n%s", out)
	}
}

// TestTimeoutBoundsLivelock injects a livelock — an event rescheduling
// itself every cycle while burning wall-clock time — and asserts the
// per-cell timeout aborts it with the watchdog's diagnosis.
func TestTimeoutBoundsLivelock(t *testing.T) {
	opt := chaosOptions()
	opt.Timeout = 150 * time.Millisecond
	opt.Chaos = func(c Cell, attempt int) Chaos {
		return Chaos{HangAtCycle: 200, HangSleep: time.Millisecond}
	}
	start := time.Now()
	run := RunPolicy(config.CaseA, memctrl.FCFS, opt)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("timeout did not bound the hang: took %s", elapsed)
	}
	if run.Err == nil {
		t.Fatal("hung cell reported success")
	}
	if !strings.Contains(run.Err.Reason, "wall-clock deadline exceeded") {
		t.Errorf("reason %q is not the wall-clock diagnosis", run.Err.Reason)
	}
	if !strings.Contains(run.Err.Reason, "idler") {
		t.Errorf("deadline diagnosis lacks the per-idler wake dump: %q", run.Err.Reason)
	}
}

// TestMaxCyclesBudget asserts the deterministic cycle budget trips on a
// run that executes more cycles than allowed.
func TestMaxCyclesBudget(t *testing.T) {
	t.Parallel()
	opt := chaosOptions()
	opt.MaxCycles = 100 // any real frame executes far more
	run := RunPolicy(config.CaseA, memctrl.FCFS, opt)
	if run.Err == nil {
		t.Fatal("cycle budget did not trip")
	}
	if !strings.Contains(run.Err.Reason, "cycle budget exceeded") {
		t.Errorf("reason %q is not the cycle-budget diagnosis", run.Err.Reason)
	}
}

// TestDeterministicRetry asserts the bounded retry reruns a failed cell
// with identical config and seed: a fault present only on the first
// attempt is absorbed, a fault present on every attempt exhausts the
// budget and reports the attempt count.
func TestDeterministicRetry(t *testing.T) {
	t.Parallel()
	opt := chaosOptions()
	opt.Retries = 1
	opt.Chaos = func(c Cell, attempt int) Chaos {
		if attempt == 0 {
			return Chaos{PanicAtCycle: 500} // environmental: first attempt only
		}
		return Chaos{}
	}
	if run := RunPolicy(config.CaseA, memctrl.FCFS, opt); run.Err != nil {
		t.Errorf("retry did not absorb a first-attempt-only fault: %v", run.Err)
	}

	opt.Retries = 2
	opt.Chaos = func(c Cell, attempt int) Chaos {
		return Chaos{PanicAtCycle: 500} // reproducible: every attempt
	}
	run := RunPolicy(config.CaseA, memctrl.FCFS, opt)
	if run.Err == nil {
		t.Fatal("reproducible fault did not fail after retries")
	}
	if run.Err.Attempts != 3 {
		t.Errorf("want 3 attempts (1 + 2 retries), got %d", run.Err.Attempts)
	}
}

// TestKillAndResume is the acceptance test for the checkpoint journal: a
// sweep killed mid-grid resumes from the journal and produces tables
// byte-identical to an uninterrupted sweep.
func TestKillAndResume(t *testing.T) {
	t.Parallel()
	grid := smallGrid()
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")

	// The uninterrupted reference sweep, no journal involved.
	baseOpt := chaosOptions()
	want, err := RunCells(grid, baseOpt)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// The interrupted sweep: the process "dies" after the third cell
	// completes; the fourth never runs and must not be journaled.
	killOpt := chaosOptions()
	killOpt.Journal = journal
	killOpt.Chaos = func(c Cell, attempt int) Chaos {
		return Chaos{KillSweep: c.Case == config.CaseB && c.Policy == memctrl.FCFS}
	}
	interrupted, err := RunCells(grid, killOpt)
	if err != nil {
		t.Fatalf("interrupted sweep: %v", err)
	}
	if interrupted[3].Err == nil {
		t.Fatal("cell after the kill point ran anyway")
	}
	j, err := OpenJournal(journal)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	if n := j.Len(); n != 3 {
		t.Fatalf("journal holds %d cells after kill, want 3", n)
	}
	j.Close()

	// The resumed sweep: three cells from the journal, one simulated.
	resOpt := chaosOptions()
	resOpt.Journal = journal
	resOpt.Resume = true
	got, err := RunCells(grid, resOpt)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	fromJournal := 0
	for _, r := range got {
		if r.FromJournal {
			fromJournal++
		}
	}
	if fromJournal != 3 {
		t.Errorf("resume served %d cells from the journal, want 3", fromJournal)
	}

	// Byte-identical: the persisted form and every rendered table match
	// the uninterrupted sweep exactly.
	for i := range grid {
		wb, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(wb) != string(gb) {
			t.Errorf("cell %d (%s) not bit-identical after resume:\nwant %s\ngot  %s",
				i, grid[i], wb, gb)
		}
		if fw, fg := FormatRun(want[i]), FormatRun(got[i]); fw != fg {
			t.Errorf("cell %d rendered table differs after resume:\nwant:\n%s\ngot:\n%s", i, fw, fg)
		}
	}
	if fw, fg := FormatSeedSummary(want), FormatSeedSummary(got); fw != fg {
		t.Errorf("seed summary differs after resume:\nwant:\n%s\ngot:\n%s", fw, fg)
	}
}

// TestFig7Supervised runs Fig. 7 through the supervisor: a panic in one
// frequency's cell comes back as that cell's RunError with the other
// bars intact, a journaled Fig. 7 resumes bit-identical to a fresh one,
// and a journal line without the priority shares (one written before
// they were recorded) is an error naming its cell, never an empty bar.
func TestFig7Supervised(t *testing.T) {
	t.Parallel()
	want, err := Fig7(chaosOptions())
	if err != nil {
		t.Fatalf("fresh Fig. 7: %v", err)
	}

	opt := chaosOptions()
	opt.Chaos = func(c Cell, attempt int) Chaos {
		if c.DataRateMTps == 1400 {
			return Chaos{PanicAtCycle: 1000}
		}
		return Chaos{}
	}
	got, err := Fig7(opt)
	var re *RunError
	if !errors.As(err, &re) || re.Cell.DataRateMTps != 1400 || !strings.Contains(re.Reason, "injected panic") {
		t.Fatalf("panicking 1400 MT/s cell: error %v, want its RunError", err)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("%d bars around the failed cell, want %d", len(got), len(want)-1)
	}
	for _, h := range got {
		if h.DataRateMTps == 1400 {
			t.Fatal("the failed cell has a bar")
		}
	}

	journal := filepath.Join(t.TempDir(), "fig7.jsonl")
	opt = chaosOptions()
	opt.Journal = journal
	if _, err := Fig7(opt); err != nil {
		t.Fatalf("journaled Fig. 7: %v", err)
	}
	opt.Resume = true
	resumed, err := Fig7(opt)
	if err != nil {
		t.Fatalf("resumed Fig. 7: %v", err)
	}
	if !reflect.DeepEqual(resumed, want) || FormatFig7(resumed) != FormatFig7(want) {
		t.Fatalf("resumed Fig. 7 differs from a fresh one:\n%s\nwant\n%s", FormatFig7(resumed), FormatFig7(want))
	}

	// Strip the shares from the 1500 MT/s line, as a journal written
	// before they were recorded has it.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var e struct {
			Cell Cell                       `json:"cell"`
			Run  map[string]json.RawMessage `json:"run"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Cell.DataRateMTps == 1500 {
			if _, ok := e.Run["priority_share"]; !ok {
				t.Fatal("the journal line carries no priority shares")
			}
			line = strings.Replace(line, `"priority_share":`, `"priority_share_absent":`, 1)
		}
		lines = append(lines, line)
	}
	if err := os.WriteFile(journal, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale, err := Fig7(opt)
	if err == nil || !strings.Contains(err.Error(), "1500 MT/s") || !strings.Contains(err.Error(), "priority shares") {
		t.Fatalf("stale journal line: error %v, want one naming the 1500 MT/s cell", err)
	}
	if len(stale) != len(want)-1 {
		t.Fatalf("%d bars around the stale line, want %d", len(stale), len(want)-1)
	}
	for _, h := range stale {
		if h.DataRateMTps == 1500 || len(h.Fraction) == 0 {
			t.Fatalf("stale journal line rendered as a bar: %+v", h)
		}
	}
}

// TestJournalSkipsTornLine asserts a journal whose final line was cut off
// mid-write (the kill signature) reopens cleanly, dropping only the torn
// entry.
func TestJournalSkipsTornLine(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := chaosOptions()
	c1 := Cell{Case: config.CaseA, Policy: memctrl.FCFS}.normalize(opt)
	c2 := Cell{Case: config.CaseB, Policy: memctrl.QoS}.normalize(opt)
	if err := j.Record(c1.Key(opt), c1, PolicyRun{Case: c1.Case, Policy: c1.Policy}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(c2.Key(opt), c2, PolicyRun{Case: c2.Case, Policy: c2.Policy}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a kill mid-write: a truncated third line, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"deadbeef","cell":{"ca`)
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer j2.Close()
	if n := j2.Len(); n != 2 {
		t.Fatalf("torn journal indexed %d cells, want 2", n)
	}
	if _, ok := j2.Lookup(c1.Key(opt)); !ok {
		t.Error("intact first entry lost")
	}
	// The append must start on a fresh line despite the torn tail.
	c3 := Cell{Case: config.CaseA, Policy: memctrl.RR}.normalize(opt)
	if err := j2.Record(c3.Key(opt), c3, PolicyRun{Case: c3.Case, Policy: c3.Policy}); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if n := j3.Len(); n != 3 {
		t.Fatalf("post-torn append indexed %d cells, want 3", n)
	}
}

// TestJournalRejectsCorruptInteriorLine asserts that resume draws a hard
// line between the one tolerated failure mode — a torn final line from a
// kill mid-write — and interior corruption: a bit flip in any
// newline-terminated entry must fail the open with the line's position,
// never silently rerun the cell inside a sweep presented as resumed.
func TestJournalRejectsCorruptInteriorLine(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := chaosOptions()
	c1 := Cell{Case: config.CaseA, Policy: memctrl.FCFS}.normalize(opt)
	c2 := Cell{Case: config.CaseB, Policy: memctrl.QoS}.normalize(opt)
	if err := j.Record(c1.Key(opt), c1, PolicyRun{Case: c1.Case, Policy: c1.Policy}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(c2.Key(opt), c2, PolicyRun{Case: c2.Case, Policy: c2.Policy}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip one bit in the middle of the first entry: `{` (0x7b) becomes
	// `s` (0x73), breaking the JSON while leaving the line structure (and
	// the intact second entry) alone.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != '{' {
		t.Fatalf("journal does not start with an object, got %q", raw[0])
	}
	raw[0] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenJournal(path); err == nil {
		t.Fatal("corrupt interior line accepted")
	} else if !strings.Contains(err.Error(), ":1:") {
		t.Errorf("error %q does not name line 1", err)
	}

	// A key-less but well-formed line is foreign data, not a sweep cell:
	// same hard failure, with the position.
	if err := os.WriteFile(path, []byte("{\"cell\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("key-less line accepted")
	} else if !strings.Contains(err.Error(), ":1:") {
		t.Errorf("error %q does not name line 1", err)
	}
}

// TestCellKeyIdentity asserts the canonical config hash separates cells
// that differ in any result-determining input and is stable for
// identically-spelled cells.
func TestCellKeyIdentity(t *testing.T) {
	t.Parallel()
	opt := chaosOptions()
	base := Cell{Case: config.CaseA, Policy: memctrl.FCFS}
	if base.Key(opt) != base.Key(opt) {
		t.Error("key not stable across calls")
	}
	if !strings.HasPrefix(base.Canonical(opt), "v1 ") {
		t.Errorf("canonical preimage not versioned: %q", base.Canonical(opt))
	}
	variants := []Cell{
		{Case: config.CaseB, Policy: memctrl.FCFS},
		{Case: config.CaseA, Policy: memctrl.QoS},
		{Case: config.CaseA, Policy: memctrl.FCFS, DataRateMTps: 1400},
		{Case: config.CaseA, Policy: memctrl.FCFS, Seed: 7},
		{Case: config.CaseA, Policy: memctrl.FCFS, Scale: 2},
		{Case: config.CaseA, Policy: memctrl.FCFS, Saturated: true},
	}
	seen := map[string]string{base.Key(opt): base.String()}
	for _, v := range variants {
		k := v.Key(opt)
		if prev, dup := seen[k]; dup {
			t.Errorf("cells %q and %q share key %s", prev, v, k)
		}
		seen[k] = v.String()
	}
	// Option changes that alter results must also change the key.
	refreshOpt := opt
	refreshOpt.Refresh = true
	if base.Key(opt) == base.Key(refreshOpt) {
		t.Error("refresh toggle does not change the journal key")
	}
	scaleOpt := opt
	scaleOpt.ScaleDiv = 256
	if base.Key(opt) == base.Key(scaleOpt) {
		t.Error("scale-div change does not change the journal key")
	}
}

// TestForEachPanicSafety asserts the worker pool lets every slot finish
// before re-raising a panic from one of them (the unsupervised-path
// safety net).
func TestForEachPanicSafety(t *testing.T) {
	t.Parallel()
	opt := Options{Workers: 4}.apply()
	done := make([]bool, 8)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		opt.forEach(len(done), func(i int) {
			if i == 2 {
				panic("slot 2 bad")
			}
			done[i] = true
		})
	}()
	if recovered == nil {
		t.Fatal("forEach swallowed the panic")
	}
	for i, ok := range done {
		if i != 2 && !ok {
			t.Errorf("slot %d did not complete after slot 2 panicked", i)
		}
	}
}
