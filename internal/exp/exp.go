// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation section, producing structured results that the
// saraexp command renders as text reports and CSV, and that the benchmark
// and test suites assert shape properties against.
package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/memctrl"
	"sara/internal/repro"
	"sara/internal/stats"
)

// Options tunes experiment fidelity versus runtime. The zero value is
// the standard fidelity: a numeric field left at zero takes the default
// its comment states, Validate refuses a negative one by name, and no
// other value is ever replaced.
type Options struct {
	// ScaleDiv is the time-scaling factor (0 = config.DefaultScaleDiv, the
	// calibrated evaluation scale). Smaller values lengthen the simulated
	// frame toward the paper's full 33 ms at proportionally higher cost;
	// a value that leaves a cell's frame shorter than one NPI sample
	// period is refused by Cell.Validate.
	ScaleDiv int
	// WarmupFrames run before measurement starts (default 0). The paper's
	// NPI figures plot the use case from its start, where the
	// synchronized frame-start burst is the stress the policies must
	// absorb. Bandwidth experiments (Fig. 8) warm up at least one frame.
	WarmupFrames int
	// MeasureFrames are the frames whose samples count (0 = 1; the paper
	// plots one 33 ms frame period). Warmup plus measured frames must fit
	// the cycle horizon (Cell.Validate).
	MeasureFrames int
	// Seed is the workload seed (0 = 1).
	Seed uint64
	// Refresh enables LPDDR4 all-bank refresh (tREFI/tRFC at the JEDEC
	// defaults for the run's data rate) in every built system, so any
	// figure can be regenerated with refresh pressure included. Off by
	// default, matching the refresh-free baseline.
	Refresh bool
	// Workers bounds the number of (case, policy, frequency) runs
	// executed concurrently: 0 selects GOMAXPROCS, 1 forces serial
	// execution, and more than the runs at hand are not started. Every
	// run owns its own kernel, system and forked RNG streams, so results
	// are identical regardless of worker count; the identity tests
	// assert it.
	Workers int

	// The supervisor knobs below are all zero-cost when left at their
	// zero values: no watchdog is armed, no journal is opened, and runs
	// take the same code path as before (plus one deferred recover per
	// run, not per cycle — the 0 allocs/op gate is unaffected).

	// Timeout bounds each cell's wall-clock time (0 = unbounded); an
	// overrunning cell is aborted with a DeadlockError carrying the
	// kernel's wake-state dump.
	Timeout time.Duration
	// MaxCycles bounds each cell's executed (non-skipped) cycles — the
	// deterministic livelock budget (0 = unbounded).
	MaxCycles uint64
	// Retries reruns a failed cell up to this many extra times (default
	// 0), deterministically: same config and seed. It absorbs
	// environmental failures; a reproducible failure fails every attempt.
	Retries int
	// Journal, when set, is the path of the append-only JSONL checkpoint
	// journal completed cells are recorded in.
	Journal string
	// Resume, with Journal set, serves cells already present in the
	// journal from it instead of re-simulating them.
	Resume bool
	// Chaos injects faults per cell (tests only; see ChaosFunc).
	Chaos ChaosFunc

	// Analyze attaches a stall-attribution analyzer to every cell and
	// records its analysis.Report in each PolicyRun. Each analyzer reads
	// only its own cell's System, so an analyzed sweep fans out across
	// Workers like any other.
	Analyze bool
	// AnalysisWindow overrides the analyzer aggregation window in cycles
	// (0 = four NPI sampling periods; at most the cell's warmup plus
	// measured frames, Cell.Validate).
	AnalysisWindow uint64
	// Monitor, when non-nil, receives each cell's progress and live
	// windowed snapshots. Monitoring alone attaches the same analyzer as
	// Analyze but keeps no report.
	Monitor *analysis.Monitor

	// priorityShares makes every run record PolicyRun.PriorityShare; only
	// Fig. 7 sets it, so other runs (and their JSON) are unchanged.
	priorityShares bool
}

// apply fills the defaults of zero fields and changes nothing else.
func (o Options) apply() Options {
	if o.ScaleDiv == 0 {
		o.ScaleDiv = config.DefaultScaleDiv
	}
	if o.MeasureFrames == 0 {
		o.MeasureFrames = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate refuses a negative count, budget or worker total, naming the
// field. The bounds that depend on a cell's system (its frame against
// the NPI sample period, its horizon against sim.Cycle) are
// Cell.Validate's.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    any
		neg  bool
	}{
		{"ScaleDiv", o.ScaleDiv, o.ScaleDiv < 0},
		{"WarmupFrames", o.WarmupFrames, o.WarmupFrames < 0},
		{"MeasureFrames", o.MeasureFrames, o.MeasureFrames < 0},
		{"Workers", o.Workers, o.Workers < 0},
		{"Timeout", o.Timeout, o.Timeout < 0},
		{"Retries", o.Retries, o.Retries < 0},
	} {
		if f.neg {
			return fmt.Errorf("exp: Options.%s %v: want >= 0", f.name, f.v)
		}
	}
	return nil
}

// forEach runs fn(0..n-1) across the configured number of workers,
// preserving slot order: fn(i) writes only its own result. Runs are
// embarrassingly parallel — each builds a private System — so fan-out
// changes wall-clock time, never results.
func (o Options) forEach(n int, fn func(i int)) {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := int64(-1)
	// A panic inside one slot must not tear down the process before the
	// other workers finish their slots: capture the first one, let every
	// remaining slot complete, then re-raise it on the caller's goroutine.
	// (Every caller runs supervised cells, which recover their own panics
	// first; this net catches a panic in a caller's own bookkeeping.)
	var panicOnce sync.Once
	var panicVal any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicVal = r })
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// PassNPI is the threshold for "target performance achieved". The paper
// uses NPI >= 1; we allow 5% measurement-window noise on windowed meters.
const PassNPI = 0.95

// FailNPI marks clear QoS failure.
const FailNPI = 0.8

// PolicyRun is one (test case, policy) simulation outcome. The struct is
// JSON-round-trippable: the checkpoint journal persists it verbatim, and
// a journal-loaded run regenerates every table and CSV bit-identically.
type PolicyRun struct {
	Case   config.Case        `json:"case"`
	Policy memctrl.PolicyKind `json:"policy"`
	// MinNPI is the per-core minimum NPI over the measured frames (worst
	// DMA of each core).
	MinNPI map[string]float64 `json:"min_npi,omitempty"`
	// Series holds the per-DMA NPI time series over the measured frames.
	Series map[string]*stats.Series `json:"series,omitempty"`
	// BandwidthGBps is the average DRAM bandwidth over the measured
	// window.
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	// RowHitRate is the fraction of CAS commands served without a fresh
	// activate, over the whole run.
	RowHitRate float64 `json:"row_hit_rate"`
	// Refreshes counts REF commands issued across all channels (zero when
	// refresh is disabled); RefreshDuty is the fraction of rank-cycles
	// spent in tRFC blackout over the whole run.
	Refreshes   uint64  `json:"refreshes,omitempty"`
	RefreshDuty float64 `json:"refresh_duty,omitempty"`
	// CriticalCores lists the cores the corresponding paper figure plots.
	CriticalCores []string `json:"critical_cores,omitempty"`
	// PriorityShare maps each critical core to the share of time its
	// DMAs' adapters spent at each priority level over the whole run,
	// warmup included. Only Fig. 7's runs record it; other runs, and
	// journal lines written before it was recorded, leave it nil.
	PriorityShare map[string][]float64 `json:"priority_share,omitempty"`
	// Analysis carries the windowed observability report when the run
	// executed with Options.Analyze; it round-trips through the journal
	// like every other field.
	Analysis *analysis.Report `json:"analysis,omitempty"`
	// Err, under the run supervisor, reports a contained failure: the
	// cell panicked, timed out or tripped the livelock watchdog. A run
	// with Err set carries no measurements.
	Err *RunError `json:"err,omitempty"`
	// FromJournal marks a run served from the checkpoint journal instead
	// of simulated (resume path; never persisted).
	FromJournal bool `json:"-"`
}

// Passed reports whether core met its target throughout the window.
func (r PolicyRun) Passed(core string) bool { return r.MinNPI[core] >= PassNPI }

// Failures lists critical cores whose minimum NPI fell below FailNPI,
// sorted for stable output.
func (r PolicyRun) Failures() []string {
	var out []string
	for _, c := range r.CriticalCores {
		if r.MinNPI[c] < FailNPI {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// measure runs an already-built (and possibly watchdog-armed) system
// through the warmup and measurement frames, containing failures: a
// watchdog trip or a panic anywhere in the system comes back as an error
// instead of unwinding the worker.
func measure(sys *core.System, cfg core.Config, tc config.Case, opt Options) (PolicyRun, error) {
	if err := sys.RunFramesChecked(opt.WarmupFrames); err != nil {
		return PolicyRun{}, err
	}
	from := sys.Now()
	before := sys.DRAMStats()
	if err := sys.RunFramesChecked(opt.MeasureFrames); err != nil {
		return PolicyRun{}, err
	}
	to := sys.Now()

	// With no warmup the first quarter frame is excluded from the minimum:
	// the windowed meters need that long to prime, and the paper's plots
	// likewise show no sub-1 dips in the first few milliseconds.
	minFrom := from
	if opt.WarmupFrames == 0 {
		minFrom = from + cfg.FramePeriod()/4
	}

	run := PolicyRun{
		Case:          tc,
		Policy:        cfg.Policy,
		MinNPI:        sys.MinNPIByCore(minFrom),
		Series:        make(map[string]*stats.Series),
		BandwidthGBps: sys.BandwidthOverWindowGBps(before, from, to),
		RowHitRate:    sys.RowHitRate(),
		Refreshes:     sys.DRAMStats().Totals().Refreshes,
		RefreshDuty:   sys.RefreshDuty(to),
		CriticalCores: sys.CriticalCores(),
	}
	if opt.priorityShares {
		run.PriorityShare = make(map[string][]float64)
		for _, c := range run.CriticalCores {
			hist := sys.PriorityHistogramByCore(c)
			share := make([]float64, hist.Levels())
			for lvl := range share {
				share[lvl] = hist.Fraction(lvl)
			}
			run.PriorityShare[c] = share
		}
	}
	for _, u := range sys.Units() {
		if u.Series == nil {
			continue
		}
		trimmed := &stats.Series{Name: u.Series.Name}
		for i, c := range u.Series.Cycles {
			if c >= from {
				// Re-base cycles on the measured frame so CSV output
				// matches the paper's 0..33 ms axis.
				trimmed.Append(c-from, u.Series.Values[i])
			}
		}
		run.Series[u.Label()] = trimmed
	}
	return run, nil
}

// RunPolicy measures one test case under one policy, supervised: a
// panicking or livelocked run comes back with PolicyRun.Err set instead
// of crashing the caller, and so does a cell that Cell.Validate refuses,
// with Attempts 0 and nothing built.
func RunPolicy(tc config.Case, policy memctrl.PolicyKind, opt Options) PolicyRun {
	opt = opt.apply()
	c := Cell{Case: tc, Policy: policy, Seed: opt.Seed}
	cfg, err := c.checked(opt)
	if err != nil {
		return PolicyRun{Case: tc, Policy: policy, Err: &RunError{Cell: c, Reason: err.Error(), Repro: c.Repro(opt)}}
	}
	return runCell(c, cfg, opt)
}

// Fig5Policies are the four arbitration policies Fig. 5 compares.
func Fig5Policies() []memctrl.PolicyKind {
	return []memctrl.PolicyKind{memctrl.FCFS, memctrl.RR, memctrl.FrameRate, memctrl.QoS}
}

// FigureCells lists the cells figure fig (5..9) measures, in the order
// of its table; any other figure has none.
func FigureCells(fig int) []Cell {
	var cells []Cell
	add := func(c Cell, policies ...memctrl.PolicyKind) {
		for _, p := range policies {
			c.Policy = p
			cells = append(cells, c)
		}
	}
	switch fig {
	case 5:
		add(Cell{Case: config.CaseA}, Fig5Policies()...)
	case 6:
		add(Cell{Case: config.CaseB}, Fig5Policies()...)
	case 7:
		for _, mtps := range Fig7Frequencies() {
			add(Cell{Case: config.CaseA, DataRateMTps: mtps}, memctrl.QoS)
		}
	case 8:
		add(Cell{Case: config.CaseA, Saturated: true}, Fig8Policies()...)
	case 9:
		add(Cell{Case: config.CaseA}, memctrl.FRFCFS, memctrl.QoSRB)
	}
	return cells
}

// checkCells runs Cell.Validate over cells, returning their configs or
// an error that names the first cell it refuses.
func checkCells(cells []Cell, opt Options) ([]core.Config, error) {
	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		var err error
		if cfgs[i], err = c.checked(opt); err != nil {
			return nil, fmt.Errorf("%v: %w", c.normalize(opt.apply()), err)
		}
	}
	return cfgs, nil
}

// Fig5 reproduces Fig. 5: NPI of critical cores during one frame of test
// case A under FCFS, round-robin, frame-rate QoS and priority QoS. Fig5,
// Fig6 and Fig9 return RunCells' error: a refused cell (nothing runs) or
// a journal failure (the runs stay valid).
func Fig5(opt Options) ([]PolicyRun, error) { return RunCells(FigureCells(5), opt) }

// Fig6 reproduces Fig. 6: the same comparison for test case B.
func Fig6(opt Options) ([]PolicyRun, error) { return RunCells(FigureCells(6), opt) }

// FreqHistogram is one bar of Fig. 7: the distribution of the image
// processor's priority levels at a DRAM frequency.
type FreqHistogram struct {
	DataRateMTps int
	// Fraction[p] is the share of time spent at priority level p.
	Fraction []float64
}

// Fig7Frequencies is the sweep of Fig. 7 (MT/s).
func Fig7Frequencies() []int { return []int{1700, 1600, 1500, 1400, 1300} }

// Fig7 reproduces Fig. 7: the image processor's priority-level
// distribution during one frame as DRAM frequency decreases, under the
// priority-based QoS policy. Its cells run supervised, like Fig. 5's, and
// it returns RunCells' error. A failed cell, or one served from a journal
// line that predates PriorityShare, has no bar: every such cell's error
// is returned, joined with RunCells' and with the bars of the others.
func Fig7(opt Options) ([]FreqHistogram, error) {
	cells := FigureCells(7)
	opt.priorityShares = true
	runs, err := RunCells(cells, opt)
	errs := []error{err}
	var out []FreqHistogram
	for i, r := range runs {
		share, ok := r.PriorityShare["Image Proc."]
		switch {
		case r.Err != nil:
			errs = append(errs, r.Err)
		case !ok:
			errs = append(errs, fmt.Errorf("exp: cell %s: journaled run has no Image Proc. priority shares (written before they were recorded); rerun it without -resume",
				cells[i].normalize(opt.apply())))
		default:
			out = append(out, FreqHistogram{DataRateMTps: cells[i].DataRateMTps, Fraction: share})
		}
	}
	return out, errors.Join(errs...)
}

// LowShare sums the fraction of time at priority levels 0..1 (healthy).
func (h FreqHistogram) LowShare() float64 { return h.Fraction[0] + h.Fraction[1] }

// HighShare sums the fraction of time at the top two priority levels.
func (h FreqHistogram) HighShare() float64 {
	n := len(h.Fraction)
	return h.Fraction[n-1] + h.Fraction[n-2]
}

// BandwidthResult is one bar of Fig. 8.
type BandwidthResult struct {
	Policy        memctrl.PolicyKind
	BandwidthGBps float64
	RowHitRate    float64
}

// Fig8Policies are the five policies Fig. 8 compares, in the paper's
// bar order.
func Fig8Policies() []memctrl.PolicyKind {
	return []memctrl.PolicyKind{memctrl.RR, memctrl.FCFS, memctrl.QoS, memctrl.QoSRB, memctrl.FRFCFS}
}

// Fig8 reproduces Fig. 8: average DRAM bandwidth during one frame under
// RR, FCFS, QoS (Policy 1), QoS-RB (Policy 2) and FR-FCFS, on the
// saturated variant of test case A (see config.Saturated). Bandwidth
// comparisons exclude the cold start: a WarmupFrames of 0 warms up one
// frame. The cells run supervised, like Fig. 5's; every failed cell's
// RunError is returned, joined with RunCells' error, with the bars.
func Fig8(opt Options) ([]BandwidthResult, error) {
	opt.WarmupFrames = max(opt.WarmupFrames, 1)
	runs, err := RunCells(FigureCells(8), opt)
	errs := []error{err}
	out := make([]BandwidthResult, len(runs))
	for i, r := range runs {
		out[i] = BandwidthResult{Policy: r.Policy, BandwidthGBps: r.BandwidthGBps, RowHitRate: r.RowHitRate}
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return out, errors.Join(errs...)
}

// Fig9 reproduces Fig. 9: NPI of the critical cores of test case A under
// FR-FCFS versus QoS-RB (Policy 2).
func Fig9(opt Options) ([]PolicyRun, error) { return RunCells(FigureCells(9), opt) }

// FormatRun renders a PolicyRun as a small text table. A failed
// (supervised) run renders its failure and the standardized Repro line
// instead of measurements.
func FormatRun(r PolicyRun) string {
	if r.Err != nil {
		var b strings.Builder
		fmt.Fprintf(&b, "case %s / policy %-9s  FAILED after %d attempt(s): %s\n",
			r.Case, r.Policy, r.Err.Attempts, firstLine(r.Err.Reason))
		fmt.Fprintf(&b, "  %s\n", repro.Line(r.Err.Repro))
		return b.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "case %s / policy %-9s  bw=%5.2f GB/s  rowhit=%.2f",
		r.Case, r.Policy, r.BandwidthGBps, r.RowHitRate)
	if r.Refreshes > 0 {
		fmt.Fprintf(&b, "  refresh=%d (%.1f%% blackout)", r.Refreshes, 100*r.RefreshDuty)
	}
	fmt.Fprintln(&b)
	cores := append([]string(nil), r.CriticalCores...)
	sort.Strings(cores)
	for _, c := range cores {
		status := "PASS"
		switch {
		case r.MinNPI[c] < FailNPI:
			status = "FAIL"
		case r.MinNPI[c] < PassNPI:
			status = "WARN"
		}
		fmt.Fprintf(&b, "  %-14s min NPI %6.3f  %s\n", c, r.MinNPI[c], status)
	}
	return b.String()
}

// firstLine truncates multi-line failure text (a watchdog's wake-state
// dump, say) to its headline for the one-line table row.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " […]"
	}
	return s
}

// FormatFig7 renders the Fig. 7 sweep as horizontal distribution bars.
func FormatFig7(hists []FreqHistogram) string {
	var b strings.Builder
	fmt.Fprintln(&b, "priority-level time share of Image Proc. (level 0..7, left to right)")
	for _, h := range hists {
		fmt.Fprintf(&b, "%4d MT/s |", h.DataRateMTps)
		for lvl, f := range h.Fraction {
			if f >= 0.005 {
				fmt.Fprintf(&b, " %d:%4.1f%%", lvl, 100*f)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig8 renders the Fig. 8 bandwidth bars.
func FormatFig8(rs []BandwidthResult) string {
	var b strings.Builder
	for _, r := range rs {
		bar := strings.Repeat("#", int(r.BandwidthGBps+0.5))
		fmt.Fprintf(&b, "%-9s %6.2f GB/s (rowhit %.2f) %s\n", r.Policy, r.BandwidthGBps, r.RowHitRate, bar)
	}
	return b.String()
}
