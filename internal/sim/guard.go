// Run-loop guardrails: a watchdog on the kernel's run loop that detects
// livelock (a cycle budget on executed cycles, a progress budget on an
// externally supplied counter, and parked-at-never deadlock with work
// outstanding) plus wall-clock timeouts, and a checked run entry point
// that converts both watchdog trips and internal invariant panics into
// typed errors at the run boundary instead of spinning or crashing the
// whole process.
//
// Everything here is strictly off the steady-state path: Run and Step are
// untouched, and RunChecked with a nil watchdog degenerates to Run plus a
// single deferred recover, so the 0 allocs/op benchmarks are unaffected.

package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"
)

// Watchdog bounds a kernel run. The zero value of each field disables
// that check; a zero-value Watchdog as a whole only buys panic
// containment (which RunChecked provides with a nil watchdog too).
type Watchdog struct {
	// MaxExecuted aborts the run after this many executed (non-skipped)
	// cycles. Outside the reference mode, executed cycles measure actual
	// work, so a run that should be mostly quiescent but spins busy every
	// cycle trips this budget long before its horizon.
	MaxExecuted uint64
	// Deadline aborts the run when wall-clock time passes it. The clock
	// is sampled every CheckEvery executed cycles, so a run overshoots
	// the deadline by at most one check interval of simulation work (or
	// by however long a single Tick blocks — cooperative, like all Go
	// timeouts without preemption).
	Deadline time.Time
	// CheckEvery is the number of executed cycles between the periodic
	// checks (deadline, progress, parked-deadlock); 0 selects 4096.
	CheckEvery uint64
	// Outstanding reports how much work is still in flight (for a SoC
	// run: transactions generated but not yet completed). When it is
	// non-nil and reports > 0 while every cached wake is parked at
	// never with no events pending, the run can provably never act
	// again — the watchdog aborts with a DeadlockError instead of
	// fast-forwarding to the horizon and returning silently-truncated
	// results.
	Outstanding func() uint64
	// Progress, with ProgressBudget, is the no-progress livelock
	// detector: if Progress() does not change for ProgressBudget
	// executed cycles, the run is declared stuck. The counter can be
	// anything monotonic that moves when real work happens (completed
	// transactions, issued DRAM commands).
	Progress       func() uint64
	ProgressBudget uint64
}

// Interval reports the number of executed cycles between the periodic
// checks: CheckEvery, or 4096 when it is 0.
func (wd *Watchdog) Interval() uint64 {
	if wd.CheckEvery == 0 {
		return 4096
	}
	return wd.CheckEvery
}

// IdlerState is one registered idler's wake state in a DeadlockError
// diagnostic dump: its cached wake bound and its live NextActivity
// answer at the moment the watchdog tripped.
type IdlerState struct {
	// ID is the idler's ticker id (its registration order).
	ID int
	// Name labels the component: its Name() or Label() if it has one,
	// otherwise its Go type.
	Name string
	// CachedWake is the wake wheel's cached lower bound; Parked means the
	// entry sits at never (the component reported it will not act again
	// without external input).
	CachedWake Cycle
	Parked     bool
	// Hint and HintOK are the component's live NextActivity answer.
	Hint   Cycle
	HintOK bool
}

// DeadlockError reports a watchdog trip: the run was aborted because it
// provably or heuristically stopped making progress. It carries the
// per-idler wake-state dump so a parked or spinning component can be
// identified without re-running under a debugger.
type DeadlockError struct {
	// Reason is a one-line diagnosis ("cycle budget exceeded", ...).
	Reason string
	// Now and Executed locate the trip in simulated time.
	Now      Cycle
	Executed uint64
	// Outstanding is the watchdog's Outstanding() answer at the trip
	// (0 if no probe was configured).
	Outstanding uint64
	// Idlers is the wake-state dump, in ticker id order.
	Idlers []IdlerState
}

// Error summarizes the trip and appends the wake-state dump.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at cycle %d (%d executed, %d outstanding)",
		e.Reason, e.Now, e.Executed, e.Outstanding)
	for _, st := range e.Idlers {
		wake := fmt.Sprint(st.CachedWake)
		if st.Parked {
			wake = "never"
		}
		hint := "never"
		if st.HintOK {
			hint = fmt.Sprint(st.Hint)
		}
		fmt.Fprintf(&b, "\n  idler %2d %-24s cached=%s live=%s", st.ID, st.Name, wake, hint)
	}
	return b.String()
}

// PanicError wraps a panic recovered at the run boundary — an internal
// invariant trip (double wire, heap corruption), a component bug, or an
// injected fault — as an error, so one bad run in a sweep reports instead
// of taking the process down.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error reports the panic value (the stack is carried separately so
// callers control how much of it they print).
func (e *PanicError) Error() string { return fmt.Sprintf("sim: run panicked: %v", e.Value) }

// Unwrap exposes a panic value that was itself an error (such as an
// *InvariantError), so errors.As sees through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// InvariantError is the panic value used by the kernel's own invariant
// checks (Register after start, zero-period Every). Surfacing them as a
// typed value lets RunChecked callers distinguish "the kernel caught a
// misuse" from an arbitrary component panic.
type InvariantError struct{ Msg string }

// Error returns the invariant message.
func (e *InvariantError) Error() string { return e.Msg }

// invariant builds the typed panic value for kernel invariant trips.
func invariant(msg string) *InvariantError { return &InvariantError{Msg: msg} }

// SetWatchdog installs (or, with nil, removes) the run watchdog and
// resets its counters. The watchdog only acts through RunChecked; plain
// Run ignores it, keeping the benchmark hot loop byte-identical.
func (k *Kernel) SetWatchdog(wd *Watchdog) {
	k.wd = wd
	k.executed = 0
	k.wdCountdown = 0
	k.progressAt = 0
	if wd != nil && wd.Progress != nil {
		k.lastProgress = wd.Progress()
	}
}

// ExecutedCycles reports how many cycles the guarded run loop has
// executed since the watchdog was armed (0 under plain Run).
func (k *Kernel) ExecutedCycles() uint64 { return k.executed }

// RunChecked advances the simulation like Run, but contains failures:
// any panic raised by an event, a ticker or the kernel's own invariant
// checks is recovered into a *PanicError, and if a watchdog is installed
// the run is additionally bounded by its budgets, returning a
// *DeadlockError when one trips. A nil error means the horizon was
// reached normally.
func (k *Kernel) RunChecked(horizon Cycle) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if k.wd == nil {
		k.Run(horizon)
		return nil
	}
	return k.runGuarded(horizon)
}

// RunForChecked is RunChecked over a relative span.
func (k *Kernel) RunForChecked(n Cycle) error { return k.RunChecked(k.now + n) }

// runGuarded is Run's loop with the watchdog checks woven in: the cycle
// budget every executed cycle (one compare), the clock/progress/deadlock
// checks every CheckEvery executed cycles, and a final parked-deadlock
// check before declaring the horizon reached.
func (k *Kernel) runGuarded(horizon Cycle) error {
	wd := k.wd
	every := wd.Interval()
	skip := !k.reference
	for k.now < horizon {
		k.Step()
		k.executed++
		if wd.MaxExecuted > 0 && k.executed > wd.MaxExecuted {
			return k.deadlock(fmt.Sprintf("cycle budget exceeded (%d executed cycles)", wd.MaxExecuted))
		}
		if k.wdCountdown == 0 {
			k.wdCountdown = every
			if err := k.wdCheck(); err != nil {
				return err
			}
		}
		k.wdCountdown--
		if skip && k.now < horizon {
			k.fastForward(horizon)
		}
	}
	// The horizon was reached: flush batched dormant-cycle bookkeeping
	// exactly as plain Run does (mid-run deadlock returns skip this — a
	// tripped run's stats are diagnostic, not results).
	k.settleRun()
	// A fully parked system fast-forwards to the horizon almost
	// instantly, so the periodic check may never have seen it; catch the
	// silent-truncation case on the way out.
	return k.checkParked()
}

// wdCheck runs the periodic (per-CheckEvery) watchdog checks.
func (k *Kernel) wdCheck() error {
	wd := k.wd
	//sara:wallclock the watchdog's deadline check is about the host clock by design
	if !wd.Deadline.IsZero() && time.Now().After(wd.Deadline) {
		return k.deadlock(fmt.Sprintf("wall-clock deadline exceeded (%s)", wd.Deadline.Format(time.RFC3339)))
	}
	if wd.Progress != nil && wd.ProgressBudget > 0 {
		if p := wd.Progress(); p != k.lastProgress {
			k.lastProgress = p
			k.progressAt = k.executed
		} else if k.executed-k.progressAt > wd.ProgressBudget {
			return k.deadlock(fmt.Sprintf("no progress in %d executed cycles", k.executed-k.progressAt))
		}
	}
	return k.checkParked()
}

// checkParked detects the provable deadlock: every idler parked at
// never, no event pending, and the outstanding probe reporting work
// still in flight — nothing can ever act again, yet the run is not done.
func (k *Kernel) checkParked() error {
	wd := k.wd
	if wd.Outstanding == nil || len(k.events) > 0 {
		return nil
	}
	for _, at := range k.wakes.at {
		if at != never {
			return nil
		}
	}
	if n := wd.Outstanding(); n > 0 {
		return k.deadlock(fmt.Sprintf("all %d idlers parked with %d transactions outstanding", len(k.tickers), n))
	}
	return nil
}

// deadlock builds a DeadlockError with the current wake-state dump.
func (k *Kernel) deadlock(reason string) *DeadlockError {
	e := &DeadlockError{
		Reason:   reason,
		Now:      k.now,
		Executed: k.executed,
		Idlers:   k.idlerDump(),
	}
	if k.wd.Outstanding != nil {
		e.Outstanding = k.wd.Outstanding()
	}
	return e
}

// idlerDump snapshots every idler's cached wake bound and live hint.
// Error path only; allocation here is fine.
func (k *Kernel) idlerDump() []IdlerState {
	out := make([]IdlerState, len(k.tickers))
	for i, t := range k.tickers {
		st := IdlerState{ID: i, Name: idlerName(t), CachedWake: k.wakes.at[i]}
		st.Parked = st.CachedWake == never
		st.Hint, st.HintOK = t.NextActivity(k.now)
		out[i] = st
	}
	return out
}

// idlerName labels a component for the diagnostic dump.
func idlerName(v any) string {
	switch n := v.(type) {
	case interface{ Name() string }:
		return n.Name()
	case interface{ Label() string }:
		return n.Label()
	}
	return fmt.Sprintf("%T", v)
}
