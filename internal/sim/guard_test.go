package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// spinner is a pathological ticker that reports work every cycle and
// never accomplishes anything — the livelock the cycle budget exists for.
type spinner struct{ ticks uint64 }

func (s *spinner) Tick(now Cycle)                       { s.ticks++ }
func (s *spinner) NextActivity(now Cycle) (Cycle, bool) { return now, true }
func (s *spinner) Name() string                         { return "spinner" }

// parker reports outstanding work but parks forever: the component
// dropped its transaction on the floor, so no wake will ever revive it.
type parker struct{ outstanding uint64 }

func (p *parker) Tick(now Cycle)                       {}
func (p *parker) NextActivity(now Cycle) (Cycle, bool) { return 0, false }

func TestWatchdogCycleBudget(t *testing.T) {
	var k Kernel
	k.Register(&spinner{})
	k.SetWatchdog(&Watchdog{MaxExecuted: 100})
	err := k.RunChecked(1_000_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("RunChecked = %v, want DeadlockError", err)
	}
	if de.Executed != 101 {
		t.Fatalf("tripped after %d executed cycles, want 101", de.Executed)
	}
	if !strings.Contains(de.Error(), "cycle budget") {
		t.Fatalf("reason %q lacks 'cycle budget'", de.Error())
	}
	// The dump names the busy idler and shows a live "now" hint.
	if len(de.Idlers) != 1 || de.Idlers[0].Name != "spinner" {
		t.Fatalf("idler dump %+v, want one entry named spinner", de.Idlers)
	}
	if st := de.Idlers[0]; !st.HintOK || st.Hint != de.Now {
		t.Fatalf("spinner dump hint %+v, want live hint at trip cycle %d", st, de.Now)
	}
}

func TestWatchdogParkedDeadlock(t *testing.T) {
	var k Kernel
	p := &parker{outstanding: 3}
	k.Register(p)
	k.SetWatchdog(&Watchdog{Outstanding: func() uint64 { return p.outstanding }})
	err := k.RunChecked(1_000_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("RunChecked = %v, want DeadlockError", err)
	}
	if de.Outstanding != 3 {
		t.Fatalf("outstanding %d, want 3", de.Outstanding)
	}
	if !strings.Contains(de.Error(), "parked") {
		t.Fatalf("reason %q lacks 'parked'", de.Error())
	}
	if len(de.Idlers) != 1 || !de.Idlers[0].Parked {
		t.Fatalf("idler dump %+v, want one parked entry", de.Idlers)
	}

	// Same system with nothing outstanding: every wake parked is a normal
	// end of activity, not a deadlock.
	var k2 Kernel
	p2 := &parker{outstanding: 0}
	k2.Register(p2)
	k2.SetWatchdog(&Watchdog{Outstanding: func() uint64 { return p2.outstanding }})
	if err := k2.RunChecked(1000); err != nil {
		t.Fatalf("drained system tripped the watchdog: %v", err)
	}
}

func TestWatchdogWallClockDeadline(t *testing.T) {
	var k Kernel
	s := &spinner{}
	k.Register(s)
	// A spinner executes every cycle; make each tick cost real time via
	// an event loop that sleeps, so the deadline trips after a few
	// checks rather than after millions of cycles.
	k.Every(1, func(now Cycle) { time.Sleep(200 * time.Microsecond) })
	k.SetWatchdog(&Watchdog{
		Deadline:   time.Now().Add(5 * time.Millisecond),
		CheckEvery: 8,
	})
	err := k.RunChecked(1_000_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("RunChecked = %v, want DeadlockError", err)
	}
	if !strings.Contains(de.Error(), "deadline") {
		t.Fatalf("reason %q lacks 'deadline'", de.Error())
	}
}

func TestWatchdogProgressBudget(t *testing.T) {
	var k Kernel
	k.Register(&spinner{})
	var progress uint64
	k.SetWatchdog(&Watchdog{
		Progress:       func() uint64 { return progress },
		ProgressBudget: 50,
		CheckEvery:     1,
	})
	err := k.RunChecked(1_000_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("RunChecked = %v, want DeadlockError", err)
	}
	if !strings.Contains(de.Error(), "no progress") {
		t.Fatalf("reason %q lacks 'no progress'", de.Error())
	}

	// A moving counter keeps the same run alive to its horizon.
	var k2 Kernel
	k2.Register(&spinner{})
	k2.SetWatchdog(&Watchdog{
		Progress:       func() uint64 { progress++; return progress },
		ProgressBudget: 50,
		CheckEvery:     1,
	})
	if err := k2.RunChecked(10_000); err != nil {
		t.Fatalf("progressing run tripped the watchdog: %v", err)
	}
}

func TestRunCheckedContainsPanics(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{1, 2, 3}})
	k.At(5, func(now Cycle) { panic("component bug") })
	err := k.RunChecked(100)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunChecked = %v, want PanicError", err)
	}
	if pe.Value != "component bug" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	// The clock stopped at the failing cycle; the kernel is inspectable.
	if k.Now() != 5 {
		t.Fatalf("clock at %d after contained panic, want 5", k.Now())
	}
}

func TestRunCheckedSurfacesInvariantErrors(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{1}})
	k.At(2, func(now Cycle) { k.Every(0, func(Cycle) {}) })
	err := k.RunChecked(100)
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("RunChecked = %v, want a wrapped InvariantError", err)
	}
	if !strings.Contains(ie.Error(), "zero period") {
		t.Fatalf("invariant message %q", ie.Error())
	}
}

func TestRunCheckedNoWatchdogMatchesRun(t *testing.T) {
	ref, chk := &fakeIdler{wakes: []Cycle{3, 100, 5000}}, &fakeIdler{wakes: []Cycle{3, 100, 5000}}
	var kr, kc Kernel
	kr.Register(ref)
	kc.Register(chk)
	kr.Run(6000)
	if err := kc.RunChecked(6000); err != nil {
		t.Fatal(err)
	}
	if kr.Now() != kc.Now() || kr.SkippedCycles() != kc.SkippedCycles() {
		t.Fatalf("checked run diverged: now %d/%d skipped %d/%d",
			kr.Now(), kc.Now(), kr.SkippedCycles(), kc.SkippedCycles())
	}
	if len(ref.ticked) != len(chk.ticked) {
		t.Fatalf("tick histories differ: %v vs %v", ref.ticked, chk.ticked)
	}
}

// TestWatchdogGuardedMatchesPlainRun pins the central equivalence: the
// guarded loop with generous budgets executes exactly the same schedule
// as the plain loop — the watchdog only observes, never perturbs.
func TestWatchdogGuardedMatchesPlainRun(t *testing.T) {
	ref, chk := &fakeIdler{wakes: []Cycle{3, 100, 5000}}, &fakeIdler{wakes: []Cycle{3, 100, 5000}}
	var kr, kc Kernel
	kr.Register(ref)
	kc.Register(chk)
	kr.Run(6000)
	kc.SetWatchdog(&Watchdog{MaxExecuted: 1 << 40, CheckEvery: 7})
	if err := kc.RunChecked(6000); err != nil {
		t.Fatal(err)
	}
	if kr.Now() != kc.Now() || kr.SkippedCycles() != kc.SkippedCycles() {
		t.Fatalf("guarded run diverged: now %d/%d skipped %d/%d",
			kr.Now(), kc.Now(), kr.SkippedCycles(), kc.SkippedCycles())
	}
	if len(ref.ticked) != len(chk.ticked) {
		t.Fatalf("tick histories differ: %v vs %v", ref.ticked, chk.ticked)
	}
	if kc.ExecutedCycles() == 0 {
		t.Fatal("guarded run reports no executed cycles")
	}
}
