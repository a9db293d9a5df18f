// The run supervisor: every sweep cell — one (case, policy, frequency,
// seed, scale) simulation — runs under containment. A panic anywhere in
// the cell's system is recovered into a typed RunError carrying the exact
// rerun command; wall-clock and cycle budgets bound livelocked cells via
// the kernel watchdog; failed cells are retried deterministically a
// bounded number of times; and the worker pool degrades gracefully — the
// remaining cells complete and the failures ride back on their
// PolicyRun.Err instead of taking the sweep down.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/memctrl"
	"sara/internal/repro"
	"sara/internal/sim"
)

// Cell identifies one point of a sweep grid. The zero values select the
// case defaults (Scale 0 and 1 both mean the base SoC; DataRateMTps 0
// means the case's data rate).
type Cell struct {
	Case   config.Case        `json:"case"`
	Policy memctrl.PolicyKind `json:"policy"`
	// DataRateMTps overrides the DRAM data rate (the Fig. 7 axis).
	DataRateMTps int `json:"mtps,omitempty"`
	// Seed is the workload seed for this cell (0 means Options.Seed).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the SoC scale factor (config.ScaleSoC); 0 or 1 is base.
	Scale int `json:"scale,omitempty"`
	// Saturated selects the bandwidth-bound Fig. 8 variant of case A.
	Saturated bool `json:"saturated,omitempty"`
}

// String labels the cell for error messages.
func (c Cell) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "case %s / policy %s / seed %d", c.Case, c.Policy, c.Seed)
	if c.DataRateMTps > 0 {
		fmt.Fprintf(&b, " / %d MT/s", c.DataRateMTps)
	}
	if c.Scale > 1 {
		fmt.Fprintf(&b, " / %dx", c.Scale)
	}
	if c.Saturated {
		b.WriteString(" / saturated")
	}
	return b.String()
}

// normalize fills the cell's defaults from opt so identical runs hash
// identically however they were spelled.
func (c Cell) normalize(opt Options) Cell {
	if c.Seed == 0 {
		c.Seed = opt.Seed
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// Canonical renders every input that determines the cell's result as a
// stable, versioned string — the preimage of the journal key. Bump the
// version when the simulation's observable behavior changes
// incompatibly, so stale journals refuse to resume silently.
func (c Cell) Canonical(opt Options) string {
	opt = opt.apply()
	c = c.normalize(opt)
	s := fmt.Sprintf("v1 case=%s policy=%s mtps=%d seed=%d scale=%d saturated=%t scalediv=%d warmup=%d measure=%d refresh=%t",
		c.Case, c.Policy, c.DataRateMTps, c.Seed, c.Scale, c.Saturated,
		opt.ScaleDiv, opt.WarmupFrames, opt.MeasureFrames, opt.Refresh)
	if opt.DomainWorkers > 1 {
		// The domain-parallel build is a different topology (per-channel
		// ingress routers) with different — though internally
		// worker-count-invariant — results, so it hashes to a different
		// journal key. The goroutine count itself is absent on purpose:
		// it never changes results. Appending keeps every serial-run key
		// stable.
		s += " kernel=domains"
	}
	return s
}

// Key is the canonical config hash journal entries are keyed by.
func (c Cell) Key(opt Options) string {
	sum := sha256.Sum256([]byte(c.Canonical(opt)))
	return hex.EncodeToString(sum[:8])
}

// Repro builds the exact one-line rerun command for this cell.
func (c Cell) Repro(opt Options) string {
	opt = opt.apply()
	c = c.normalize(opt)
	parts := []string{"go", "run", "./cmd/sarasweep", "-sweep", "cell",
		"-case", c.Case.String(),
		"-policy", c.Policy.String(),
		"-seed", fmt.Sprint(c.Seed),
	}
	if c.DataRateMTps > 0 {
		parts = append(parts, "-freq", fmt.Sprint(c.DataRateMTps))
	}
	if c.Scale > 1 {
		parts = append(parts, "-soc-scale", fmt.Sprint(c.Scale))
	}
	if c.Saturated {
		parts = append(parts, "-saturated")
	}
	if opt.Refresh {
		parts = append(parts, "-refresh")
	}
	if opt.ScaleDiv != 256 {
		parts = append(parts, "-scale", fmt.Sprint(opt.ScaleDiv))
	}
	if opt.WarmupFrames > 0 {
		parts = append(parts, "-warmup", fmt.Sprint(opt.WarmupFrames))
	}
	if opt.MeasureFrames != 1 {
		parts = append(parts, "-measure", fmt.Sprint(opt.MeasureFrames))
	}
	if opt.DomainWorkers > 1 {
		parts = append(parts, "-domain-workers", fmt.Sprint(opt.DomainWorkers))
	}
	return repro.Command(parts...)
}

// Config builds the cell's full system configuration. This is the single
// translation from cell identity to core.Config, shared by the sweep
// supervisor and the sarasweep cell command, so a Repro line rebuilds
// exactly the failing system.
func (c Cell) Config(opt Options) core.Config {
	opt = opt.apply()
	c = c.normalize(opt)
	opts := []config.Option{
		config.WithPolicy(c.Policy),
		config.WithScaleDiv(opt.ScaleDiv),
		config.WithSeed(c.Seed),
	}
	if c.DataRateMTps > 0 {
		opts = append(opts, config.WithDataRate(c.DataRateMTps))
	}
	// Refresh last: its cycle conversion must see the final data rate.
	opts = append(opts, config.WithRefresh(opt.Refresh))
	var cfg core.Config
	if c.Saturated {
		cfg = config.Saturated(opts...)
	} else {
		cfg = config.Camcorder(c.Case, opts...)
	}
	if c.Scale > 1 {
		cfg = config.ScaleSoC(cfg, c.Scale)
	}
	return cfg
}

// RunError reports one failed cell: what happened, after how many
// attempts, and the exact command that reruns it. The deterministic
// kernel makes the Repro line strong — a failure that does not reproduce
// there was environmental (and the bounded retry usually absorbed it).
type RunError struct {
	Cell Cell `json:"cell"`
	// Attempts is how many times the cell was run (1 = no retry).
	Attempts int `json:"attempts"`
	// Reason is the failure text: the panic value, the watchdog's
	// diagnosis (with its per-idler wake dump), or "sweep aborted".
	Reason string `json:"reason"`
	// Stack is the recovered goroutine stack for panics.
	Stack string `json:"stack,omitempty"`
	// Repro is the exact one-line rerun command.
	Repro string `json:"repro"`
}

// Error summarizes the failure and ends with the standardized Repro line.
func (e *RunError) Error() string {
	return fmt.Sprintf("cell %s failed after %d attempt(s): %s\n%s",
		e.Cell, e.Attempts, e.Reason, repro.Line(e.Repro))
}

// Failed collects the errors of a supervised result set, in slot order.
func Failed(runs []PolicyRun) []*RunError {
	var errs []*RunError
	for _, r := range runs {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errs
}

// Watchdog translates the options' budgets into a kernel watchdog armed
// now, or nil when no budget is configured (the zero-cost default).
// Exported for command-line tools that drive systems outside the cell
// supervisor (the ablation sweeps) but want the same -timeout and
// -max-cycles semantics.
func (o Options) Watchdog() *sim.Watchdog {
	if o.Timeout <= 0 && o.MaxCycles == 0 {
		return nil
	}
	wd := &sim.Watchdog{
		MaxExecuted: o.MaxCycles,
		// A tight cadence keeps the timeout granularity well under any
		// sensible budget; one clock read per 64 executed cycles is noise
		// next to the simulation work those cycles do.
		CheckEvery: 64,
	}
	if o.Timeout > 0 {
		wd.Deadline = time.Now().Add(o.Timeout) //sara:wallclock watchdog deadline is a host bound, not simulated time
	}
	return wd
}

// runCell runs one supervised cell: contained, bounded, and retried up
// to opt.Retries extra times. Retries are deterministic — same config,
// same seed — so a reproducible failure fails every attempt and an
// environmental one (OOM-killed neighbor, timeout on a loaded host) gets
// a clean second chance.
func runCell(c Cell, opt Options) PolicyRun {
	c = c.normalize(opt)
	var last *RunError
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		run, rerr := runCellOnce(c, opt, attempt)
		if rerr == nil {
			return run
		}
		rerr.Attempts = attempt + 1
		last = rerr
	}
	return PolicyRun{Case: c.Case, Policy: c.Policy, Err: last}
}

// runCellOnce builds, arms and measures the cell's system once. With
// analysis or monitoring enabled it attaches the analyzer right after the
// build — before any cycle runs — and folds the report into the run.
func runCellOnce(c Cell, opt Options, attempt int) (run PolicyRun, rerr *RunError) {
	var mon *analysis.RunHandle
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Cell:   c,
				Reason: fmt.Sprintf("panic: %v", r),
				Stack:  string(debug.Stack()),
				Repro:  c.Repro(opt),
			}
		}
		if rerr != nil {
			mon.Finish(false)
		}
	}()
	cfg := c.Config(opt)
	sys := opt.buildSystem(cfg)
	defer sys.Close()
	var az *analysis.Analyzer
	if opt.Analyze || opt.Monitor != nil {
		mon = opt.Monitor.StartRun(c.String())
		aopt := analysis.Options{Window: sim.Cycle(opt.AnalysisWindow), Edges: opt.Analyze}
		if mon != nil {
			aopt.Publish = mon.Publish
		}
		az = analysis.Attach(sys, aopt)
		defer az.Detach()
	}
	if opt.Chaos != nil {
		opt.Chaos(c, attempt).arm(sys)
	}
	if wd := opt.Watchdog(); wd != nil {
		sys.SetWatchdog(wd)
	}
	run, err := measure(sys, cfg, c.Case, opt)
	if err != nil {
		rerr = &RunError{Cell: c, Reason: err.Error(), Repro: c.Repro(opt)}
		if pe, ok := err.(*sim.PanicError); ok {
			rerr.Reason = fmt.Sprintf("panic: %v", pe.Value)
			rerr.Stack = string(pe.Stack)
		}
		return PolicyRun{}, rerr
	}
	if opt.Analyze {
		run.Analysis = az.Report()
	}
	mon.Finish(true)
	return run, nil
}

// RunCells measures every cell of a grid under the supervisor, in slot
// order, fanning across the worker pool. Failed cells carry their
// RunError in PolicyRun.Err while the rest of the grid completes.
//
// With Options.Journal set, completed cells are appended to the journal
// as they finish; with Options.Resume also set, cells already present in
// the journal are served from it instead of re-simulated — bit-identical
// to a fresh run, which the kill-and-resume tests assert. The returned
// error reports journal open/write failures only; the runs themselves
// are always valid.
func RunCells(cells []Cell, opt Options) ([]PolicyRun, error) {
	opt = opt.apply()
	var j *Journal
	var jerr atomic.Value // first journal write error
	if opt.Journal != "" {
		var err error
		j, err = OpenJournal(opt.Journal)
		if err != nil {
			return nil, err
		}
		defer j.Close()
	}
	out := make([]PolicyRun, len(cells))
	opt.Monitor.AddPlanned(len(cells))
	var killed atomic.Bool
	opt.forEach(len(cells), func(i int) {
		c := cells[i].normalize(opt)
		key := c.Key(opt)
		if j != nil && opt.Resume {
			if run, ok := j.Lookup(key); ok {
				run.FromJournal = true
				out[i] = run
				// A journal-served cell never runs; its progress entry
				// goes straight to done.
				opt.Monitor.StartRun(c.String()).Finish(true)
				return
			}
		}
		if killed.Load() {
			// A chaos kill simulates the process dying mid-sweep: cells
			// after the kill point never ran and are reported as such
			// (and, crucially, never journaled).
			out[i] = PolicyRun{Case: c.Case, Policy: c.Policy, Err: &RunError{
				Cell:   c,
				Reason: "sweep aborted before this cell ran",
				Repro:  c.Repro(opt),
			}}
			return
		}
		run := runCell(c, opt)
		if run.Err == nil && j != nil {
			if err := j.Record(key, c, run); err != nil {
				jerr.CompareAndSwap(nil, err)
			}
		}
		if opt.Chaos != nil && opt.Chaos(c, 0).KillSweep {
			killed.Store(true)
		}
		out[i] = run
	})
	if err, ok := jerr.Load().(error); ok {
		return out, err
	}
	return out, nil
}
