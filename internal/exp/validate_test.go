package exp

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sara/internal/config"
	"sara/internal/memctrl"
)

// TestValidateEveryNumericField sets each numeric field of Options and
// Cell to zero, a negative value where the type has one, and a huge
// value. Validate must refuse the value with an error that names the
// field, or accept it. An accepted value must read as its doc comment
// states — a zero as the documented default, anything else unchanged —
// and the cell must then run and measure. Refused cells must not run.
// The huge values that name a run length are refused, so no huge horizon
// runs.
func TestValidateEveryNumericField(t *testing.T) {
	t.Parallel()
	base := Options{ScaleDiv: 2048, Workers: 1}
	type value struct {
		v  any
		ok bool
	}
	rows := []struct {
		field  string
		cell   bool // a Cell field, else an Options field
		def    any  // what a zero reads as
		values []value
	}{
		{"ScaleDiv", false, config.DefaultScaleDiv, []value{{0, true}, {-1, false}, {math.MaxInt, false}}},
		{"WarmupFrames", false, 0, []value{{0, true}, {-1, false}, {math.MaxInt, false}}},
		{"MeasureFrames", false, 1, []value{{0, true}, {-1, false}, {math.MaxInt, false}}},
		{"Seed", false, uint64(1), []value{{uint64(0), true}, {uint64(math.MaxUint64), true}}},
		{"Workers", false, 0, []value{{0, true}, {-1, false}, {math.MaxInt, true}}},
		{"Timeout", false, time.Duration(0), []value{{time.Duration(0), true}, {-time.Second, false}, {time.Duration(math.MaxInt64), true}}},
		{"MaxCycles", false, uint64(0), []value{{uint64(0), true}, {uint64(math.MaxUint64), true}}},
		{"Retries", false, 0, []value{{0, true}, {-1, false}, {math.MaxInt, true}}},
		{"AnalysisWindow", false, uint64(0), []value{{uint64(0), true}, {uint64(math.MaxUint64), false}}},
		{"Case", true, config.CaseA, []value{{config.Case(0), true}, {config.Case(-1), false}, {config.Case(math.MaxInt), false}}},
		{"Policy", true, memctrl.FCFS, []value{{memctrl.PolicyKind(0), true}, {memctrl.PolicyKind(math.MaxUint8), false}}},
		{"DataRateMTps", true, 0, []value{{0, true}, {-1, false}, {math.MaxInt, false}}},
		{"Seed", true, uint64(1), []value{{uint64(0), true}, {uint64(math.MaxUint64), true}}},
		{"Scale", true, 1, []value{{0, true}, {-1, false}, {1 << 62, false}, {math.MaxInt, false}}},
	}
	for _, r := range rows {
		for _, v := range r.values {
			opt, c := base, Cell{Case: config.CaseA, Policy: memctrl.QoS}
			target := reflect.ValueOf(&opt).Elem()
			if r.cell {
				target = reflect.ValueOf(&c).Elem()
			}
			target.FieldByName(r.field).Set(reflect.ValueOf(v.v))
			if r.field == "AnalysisWindow" {
				opt.Analyze = true
			}
			err := c.Validate(opt)
			if v.ok != (err == nil) {
				t.Errorf("%s %v: Validate = %v, want accepted %t", r.field, v.v, err, v.ok)
				continue
			}
			if err != nil {
				if !strings.Contains(err.Error(), r.field) {
					t.Errorf("%s %v: error %q does not name the field", r.field, v.v, err)
				}
				if runs, rerr := RunCells([]Cell{c}, opt); rerr == nil || runs != nil {
					t.Errorf("%s %v: RunCells ran a refused cell (err %v)", r.field, v.v, rerr)
				}
				continue
			}
			// Accepted: a zero reads as the documented default, any other
			// value as given.
			applied := reflect.ValueOf(opt.apply())
			if r.cell {
				applied = reflect.ValueOf(c.normalize(opt.apply()))
			}
			want := v.v
			if reflect.ValueOf(v.v).IsZero() {
				want = r.def
			}
			if got := applied.FieldByName(r.field).Interface(); got != want {
				t.Errorf("%s %v reads as %v, want %v", r.field, v.v, got, want)
			}
			runs, rerr := RunCells([]Cell{c}, opt)
			if rerr != nil || runs[0].Err != nil || len(runs[0].MinNPI) == 0 {
				t.Errorf("%s %v: accepted cell did not measure: %v %+v", r.field, v.v, rerr, runs)
			}
		}
	}
}

// TestRefusedOptionsRecordAnError: RunPolicy records a refused cell as a
// failed run with no attempt, and the figure helpers and RunSeeds return
// the error with no results. A negative Retries once made no attempt and
// returned an empty run with a nil Err, which the figures printed as
// measurements.
func TestRefusedOptionsRecordAnError(t *testing.T) {
	t.Parallel()
	opt := Options{ScaleDiv: 2048, Retries: -1}
	run := RunPolicy(config.CaseA, memctrl.QoS, opt)
	if run.Err == nil || run.Err.Attempts != 0 || !strings.Contains(run.Err.Reason, "Retries") {
		t.Errorf("RunPolicy: Err = %+v, want an unattempted Retries refusal", run.Err)
	}
	for name, fig := range map[string]func(Options) (int, error){
		"Fig5": func(o Options) (int, error) { r, err := Fig5(o); return len(r), err },
		"Fig6": func(o Options) (int, error) { r, err := Fig6(o); return len(r), err },
		"Fig7": func(o Options) (int, error) { r, err := Fig7(o); return len(r), err },
		"Fig8": func(o Options) (int, error) { r, err := Fig8(o); return len(r), err },
		"Fig9": func(o Options) (int, error) { r, err := Fig9(o); return len(r), err },
		"RunSeeds": func(o Options) (int, error) {
			r, err := RunSeeds(config.CaseA, memctrl.QoS, []uint64{1, 2}, o)
			return len(r), err
		},
	} {
		if n, err := fig(opt); err == nil || n != 0 {
			t.Errorf("%s: %d results, error %v; want none and the Retries refusal", name, n, err)
		}
	}
	// Fig. 7's slowest data rate has the shortest frame: a scale that
	// case A at 1866 MT/s accepts is refused there.
	if _, err := Fig7(Options{ScaleDiv: 14000}); err == nil || !strings.Contains(err.Error(), "ScaleDiv") {
		t.Errorf("Fig7 at ScaleDiv 14000: error %v, want a ScaleDiv refusal", err)
	}
}

// copyJournal copies a checked-in journal into a temporary directory, so
// a resumed run may append to it.
func copyJournal(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDefaultScaleJournalResumes pins the journal key of a cell at the
// default scale: journal_default_scale.jsonl was written by
// `sarasweep -sweep cell -journal …` before config.DefaultScaleDiv
// existed, and must still resume as a completed cell, bit-identical to a
// fresh run.
func TestDefaultScaleJournalResumes(t *testing.T) {
	t.Parallel()
	c := Cell{Case: config.CaseA, Policy: memctrl.QoS, Seed: 1}
	opt := Options{Journal: copyJournal(t, "journal_default_scale.jsonl"), Resume: true, Workers: 1}
	runs, err := RunCells([]Cell{c}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !runs[0].FromJournal {
		t.Fatalf("cell key %s missed the journal line written at the default scale", c.Key(opt))
	}
	fresh, err := RunCells([]Cell{c}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runs[0].FromJournal = false
	if !reflect.DeepEqual(runs[0], fresh[0]) {
		t.Fatal("the journaled run differs from a fresh one")
	}
}

// TestDomainKernelJournalIsNotServed: journal_domain_kernel.jsonl was
// written by `sarasweep -sweep cell -domain-workers 2 -journal …`, whose
// key carried a kernel=domains suffix. The file must still open, and the
// serial cell must be simulated again rather than served the
// partitioned topology's results.
func TestDomainKernelJournalIsNotServed(t *testing.T) {
	t.Parallel()
	path := copyJournal(t, "journal_domain_kernel.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal from the domain kernel no longer opens: %v", err)
	}
	if j.Len() != 1 {
		t.Fatalf("journal holds %d cells, want 1", j.Len())
	}
	j.Close()
	c := Cell{Case: config.CaseA, Policy: memctrl.QoS, Seed: 1}
	runs, err := RunCells([]Cell{c}, Options{Journal: path, Resume: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].FromJournal {
		t.Fatal("the serial cell was served the domain kernel's journaled result")
	}
}
