package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelTickOrder(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Register(TickFunc(func(Cycle) { order = append(order, i) }))
	}
	k.Step()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("tick order %v, want [0 1 2]", order)
	}
}

func TestKernelRegisterAfterStartPanics(t *testing.T) {
	var k Kernel
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Register after start")
		}
	}()
	k.Register(TickFunc(func(Cycle) {}))
}

func TestKernelEventsFireInOrder(t *testing.T) {
	var k Kernel
	var fired []Cycle
	k.At(5, func(now Cycle) { fired = append(fired, now) })
	k.At(2, func(now Cycle) { fired = append(fired, now) })
	k.At(2, func(now Cycle) { fired = append(fired, now+100) }) // same-cycle tiebreak by schedule order
	k.Run(10)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if fired[0] != 2 || fired[1] != 102 || fired[2] != 5 {
		t.Fatalf("fire order %v, want [2 102 5]", fired)
	}
}

func TestKernelEventBeforeTickers(t *testing.T) {
	var k Kernel
	var log []string
	k.Register(TickFunc(func(Cycle) { log = append(log, "tick") }))
	k.At(0, func(Cycle) { log = append(log, "event") })
	k.Step()
	if log[0] != "event" || log[1] != "tick" {
		t.Fatalf("order %v, want event before tick", log)
	}
}

func TestKernelAfterAndEvery(t *testing.T) {
	var k Kernel
	var at []Cycle
	k.After(3, func(now Cycle) { at = append(at, now) })
	k.Every(4, func(now Cycle) { at = append(at, now) })
	k.Run(13)
	want := []Cycle{3, 4, 8, 12}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

func TestKernelEveryZeroPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Every(0)")
		}
	}()
	k.Every(0, func(Cycle) {})
}

func TestPastEventFiresNextStep(t *testing.T) {
	var k Kernel
	k.Run(10)
	fired := false
	k.At(3, func(Cycle) { fired = true })
	k.Step()
	if !fired {
		t.Fatal("past-due event did not fire on next step")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(7)
	a, b := r.Fork(1), r.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Intn(0)")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandGeometricMean(t *testing.T) {
	r := NewRand(11)
	const mean = 50.0
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := r.Geometric(mean)
		if g < 1 {
			t.Fatalf("geometric sample %d below 1", g)
		}
		sum += float64(g)
	}
	got := sum / n
	if got < 0.9*mean || got > 1.1*mean {
		t.Fatalf("geometric mean %.1f, want ~%.0f", got, mean)
	}
}

func TestRandGeometricDegenerate(t *testing.T) {
	r := NewRand(1)
	if g := r.Geometric(0.5); g != 1 {
		t.Fatalf("Geometric(0.5) = %d, want 1", g)
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(3)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency %.3f, want ~0.30", frac)
	}
}

// fakeIdler is a ticker with a scripted wake schedule.
type fakeIdler struct {
	wakes  []Cycle // sorted cycles at which it has work
	ticked []Cycle // cycles at which Tick observed work
}

func (f *fakeIdler) Tick(now Cycle) {
	for len(f.wakes) > 0 && f.wakes[0] <= now {
		if f.wakes[0] == now {
			f.ticked = append(f.ticked, now)
		}
		f.wakes = f.wakes[1:]
	}
}

func (f *fakeIdler) NextActivity(now Cycle) (Cycle, bool) {
	if len(f.wakes) == 0 {
		return 0, false
	}
	if f.wakes[0] <= now {
		return now, true
	}
	return f.wakes[0], true
}

func TestKernelIdleSkipJumpsToNextActivity(t *testing.T) {
	var k Kernel
	f := &fakeIdler{wakes: []Cycle{3, 100, 5000}}
	k.Register(f)
	if !k.IdleSkipActive() {
		t.Fatal("idle skip should be active with only Idler tickers")
	}
	k.Run(10000)
	if k.Now() != 10000 {
		t.Fatalf("final cycle %d, want 10000", k.Now())
	}
	want := []Cycle{3, 100, 5000}
	if len(f.ticked) != len(want) {
		t.Fatalf("ticked at %v, want %v", f.ticked, want)
	}
	for i := range want {
		if f.ticked[i] != want[i] {
			t.Fatalf("ticked at %v, want %v", f.ticked, want)
		}
	}
	if k.SkippedCycles() == 0 {
		t.Fatal("no cycles skipped across a 10000-cycle idle run")
	}
	if executed := uint64(k.Now()) - k.SkippedCycles(); executed > 10 {
		t.Fatalf("executed %d cycles, want only the scheduled wakes (plus cycle 0)", executed)
	}
}

func TestKernelIdleSkipBoundedByEvents(t *testing.T) {
	var k Kernel
	f := &fakeIdler{wakes: []Cycle{9000}}
	k.Register(f)
	var fired []Cycle
	k.Every(1000, func(now Cycle) { fired = append(fired, now) })
	k.Run(4500)
	want := []Cycle{1000, 2000, 3000, 4000}
	if len(fired) != len(want) {
		t.Fatalf("events fired at %v, want %v", fired, want)
	}
}

func TestKernelOpaqueTickerDisablesSkip(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{})
	k.Register(TickFunc(func(Cycle) {}))
	if k.IdleSkipActive() {
		t.Fatal("TickFunc is opaque; skipping must be disabled")
	}
	k.Run(100)
	if k.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles with an opaque ticker registered", k.SkippedCycles())
	}
}

func TestKernelSetIdleSkipOff(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{50}})
	k.SetIdleSkip(false)
	k.Run(100)
	if k.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles with skipping disabled", k.SkippedCycles())
	}
}

// refProbe records what its wake handle reports on every tick.
type refProbe struct {
	fakeIdler
	h    WakeHandle
	seen []bool
}

func (p *refProbe) BindWake(h WakeHandle) { p.h = h }

func (p *refProbe) Tick(now Cycle) {
	p.seen = append(p.seen, p.h.Reference())
	p.fakeIdler.Tick(now)
}

// TestKernelSetReference pins the per-kernel reference switch: it turns
// idle skipping off and is visible to every registered component through
// its wake handle, while a second kernel and an inert handle read false.
func TestKernelSetReference(t *testing.T) {
	var ref, fast Kernel
	pr := &refProbe{fakeIdler: fakeIdler{wakes: []Cycle{50}}}
	pf := &refProbe{fakeIdler: fakeIdler{wakes: []Cycle{50}}}
	ref.Register(pr)
	fast.Register(pf)
	ref.SetReference(true)
	if ref.IdleSkipActive() {
		t.Fatal("reference kernel reports idle skipping active")
	}
	ref.Run(100)
	fast.Run(100)
	if ref.SkippedCycles() != 0 || len(pr.seen) != 100 {
		t.Fatalf("reference kernel skipped %d cycles and ticked %d times, want 0 and 100",
			ref.SkippedCycles(), len(pr.seen))
	}
	for i, on := range pr.seen {
		if !on {
			t.Fatalf("tick %d: handle of a reference kernel read Reference() = false", i)
		}
	}
	for i, on := range pf.seen {
		if on {
			t.Fatalf("tick %d: handle of a skipping kernel read Reference() = true", i)
		}
	}
	if fast.SkippedCycles() == 0 {
		t.Fatal("skipping kernel skipped nothing")
	}
	if (WakeHandle{}).Reference() {
		t.Fatal("inert handle reads Reference() = true")
	}
}

func TestKernelAtArg(t *testing.T) {
	var k Kernel
	payload := new(int)
	*payload = 7
	var got int
	k.AtArg(5, func(now Cycle, arg any) { got = *arg.(*int) + int(now) }, payload)
	k.Run(10)
	if got != 12 {
		t.Fatalf("AtArg callback got %d, want 12", got)
	}
}

func TestKernelAtArgOrderedWithAt(t *testing.T) {
	var k Kernel
	var order []string
	k.At(3, func(Cycle) { order = append(order, "a") })
	k.AtArg(3, func(Cycle, any) { order = append(order, "b") }, nil)
	k.At(3, func(Cycle) { order = append(order, "c") })
	k.Run(5)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("same-cycle mixed events fired as %v, want [a b c]", order)
	}
}

func TestKernelNextWake(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{40}})
	k.At(25, func(Cycle) {})
	if got := k.NextWake(1000); got != 25 {
		t.Fatalf("NextWake = %d, want 25 (event before ticker wake)", got)
	}
	k.Run(30)
	if got := k.NextWake(1000); got != 40 {
		t.Fatalf("NextWake = %d, want 40 (ticker wake)", got)
	}
	if got := k.NextWake(35); got != 35 {
		t.Fatalf("NextWake = %d, want horizon cap 35", got)
	}
}

// cachedSleeper models a component that caches its wake cycle instead of
// recomputing it per query — the noc.Router idiom. Its NextActivity is a
// pure read of the cache; Rearm is the external wake propagation, and —
// per the push-based contract — it forwards every external re-arm to the
// kernel wake handle received through BindWake.
type cachedSleeper struct {
	wakeAt Cycle
	wake   WakeHandle
	acted  []Cycle
}

const sleeperNever = ^Cycle(0)

func (s *cachedSleeper) BindWake(h WakeHandle) { s.wake = h }

func (s *cachedSleeper) Rearm(at Cycle) {
	if at < s.wakeAt {
		s.wakeAt = at
	}
	s.wake.Rearm(at)
}

func (s *cachedSleeper) Tick(now Cycle) {
	if now >= s.wakeAt {
		s.acted = append(s.acted, now)
		s.wakeAt = sleeperNever
	}
}

func (s *cachedSleeper) NextActivity(now Cycle) (Cycle, bool) {
	if s.wakeAt == sleeperNever {
		return 0, false
	}
	if s.wakeAt <= now {
		return now, true
	}
	return s.wakeAt, true
}

// TestKernelReArmedWakeHonored pins the push-based wake-propagation
// contract for components that cache their next activity: when an
// external event lands mid-sleep and re-arms an EARLIER wake through the
// component's WakeHandle, the kernel must execute the re-armed cycle —
// including reviving an entry that had parked at never. The skipping run
// must act on exactly the same cycles as the cycle-stepped reference.
func TestKernelReArmedWakeHonored(t *testing.T) {
	run := func(skip bool) []Cycle {
		var k Kernel
		s := &cachedSleeper{wakeAt: 900}
		k.Register(s)
		// The upstream injections: at cycle 50 something lands in the
		// sleeper's queue that advances its next action to cycle 55
		// (ahead of the cached 900), and after the cache is consumed a
		// second injection at 300 arms a fresh wake.
		k.At(50, func(now Cycle) { s.Rearm(now + 5) })
		k.At(300, func(now Cycle) { s.Rearm(now + 10) })
		k.SetIdleSkip(skip)
		k.Run(1000)
		return s.acted
	}
	ref, fast := run(false), run(true)
	want := []Cycle{55, 310}
	if len(ref) != len(want) || ref[0] != want[0] || ref[1] != want[1] {
		t.Fatalf("reference acted at %v, want %v", ref, want)
	}
	if len(fast) != len(ref) {
		t.Fatalf("skipping acted at %v, reference at %v", fast, ref)
	}
	for i := range ref {
		if fast[i] != ref[i] {
			t.Fatalf("skipping acted at %v, reference at %v", fast, ref)
		}
	}
}

// busyBurst is busy every cycle in [0, busyUntil), then has one final
// wake at lateWake.
type busyBurst struct {
	busyUntil Cycle
	lateWake  Cycle
	acted     []Cycle
}

func (b *busyBurst) Tick(now Cycle) {
	if now < b.busyUntil || now == b.lateWake {
		b.acted = append(b.acted, now)
	}
}

func (b *busyBurst) NextActivity(now Cycle) (Cycle, bool) {
	if now < b.busyUntil {
		return now, true
	}
	if now <= b.lateWake {
		return b.lateWake, true
	}
	return 0, false
}

// TestKernelBusyBurst pins the busy-to-idle transition: a sustained busy
// burst must execute every cycle (identically to the stepped reference),
// and once the burst ends the kernel must discover the idle stretch at
// the burst's last cycle and skip it whole.
func TestKernelBusyBurst(t *testing.T) {
	run := func(skip bool) (acted []Cycle, skipped uint64) {
		var k Kernel
		b := &busyBurst{busyUntil: 100, lateWake: 5000}
		k.Register(b)
		k.SetIdleSkip(skip)
		k.Run(6000)
		return b.acted, k.SkippedCycles()
	}
	ref, _ := run(false)
	fast, skipped := run(true)
	if len(ref) != len(fast) {
		t.Fatalf("acted %d cycles skipping, %d stepped", len(fast), len(ref))
	}
	for i := range ref {
		if ref[i] != fast[i] {
			t.Fatalf("action %d at cycle %d skipping, %d stepped", i, fast[i], ref[i])
		}
	}
	// Both idle stretches are skipped exactly: [100, 5000) up to the late
	// wake, and [5001, 5999) up to the run's final executed cycle.
	if want := uint64(4900 + 998); skipped != want {
		t.Fatalf("skipped %d cycles, want %d", skipped, want)
	}
}

func TestEventHeapManyEvents(t *testing.T) {
	var k Kernel
	r := NewRand(9)
	var fired []Cycle
	for i := 0; i < 500; i++ {
		at := Cycle(r.Intn(2000))
		k.At(at, func(now Cycle) { fired = append(fired, now) })
	}
	k.Run(2001)
	if len(fired) != 500 {
		t.Fatalf("fired %d events, want 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order at %d: %d after %d", i, fired[i], fired[i-1])
		}
	}
}

// unboundSleeper is the negative control for the push contract: it caches
// its wake like cachedSleeper but never forwards re-arms to the kernel.
type unboundSleeper struct {
	cachedSleeper
}

func (s *unboundSleeper) BindWake(WakeHandle) {} // deliberately dropped

func (s *unboundSleeper) Rearm(at Cycle) {
	if at < s.wakeAt {
		s.wakeAt = at
	}
}

// TestWakeHeapRequiresRearm documents the contract inversion: a cached
// component whose external wakes are NOT pushed through its WakeHandle is
// handled correctly by the linear poll sweep (which re-reads every hint
// each executed cycle) but missed by the active-list kernel — that gap is
// exactly why BindWake forwarding is mandatory, and why a dropped re-arm
// diverges every differential suite from its stepped reference.
func TestWakeHeapRequiresRearm(t *testing.T) {
	run := func(poll bool) []Cycle {
		var k Kernel
		k.poll = poll
		s := &unboundSleeper{}
		s.wakeAt = sleeperNever
		k.Register(s)
		anchor := &fakeIdler{wakes: []Cycle{990}} // keeps the run alive past the re-arm
		k.Register(anchor)
		k.At(50, func(now Cycle) { s.Rearm(now + 5) })
		k.Run(1000)
		return s.acted
	}
	if got := run(true); len(got) != 1 || got[0] != 55 {
		t.Fatalf("poll reference acted at %v, want [55]", got)
	}
	// Under the active list the unbound sleeper's kernel entry stays
	// parked at never, so it is never ticked again and never acts at all —
	// not even late. (Before the active list it would have acted 935
	// cycles late, at the anchor's executed cycle 990; now the dropped
	// re-arm silences it completely, which is the equivalence bug the
	// contract forbids.)
	if got := run(false); len(got) != 0 {
		t.Fatalf("active list acted at %v for an unbound sleeper, want no acts at all", got)
	}
}

// TestKernelRearmOutOfRangePanics pins the Rearm wiring check: an
// out-of-range idler id is a silently missed wake waiting to happen, so
// it must die with a typed *InvariantError instead of being dropped.
func TestKernelRearmOutOfRangePanics(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{5}})
	for _, id := range []int{-1, 1, 99} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Rearm(%d) did not panic", id)
				}
				if _, ok := r.(*InvariantError); !ok {
					t.Fatalf("Rearm(%d) panicked with %T (%v), want *InvariantError", id, r, r)
				}
			}()
			k.Rearm(id, 10)
		}()
	}
	// In-range re-arms still work after the checks.
	k.Rearm(0, 3)
	if k.wakes.at[0] != 0 { // initial cached wake is 0; 3 is an ignored increase
		t.Fatalf("valid Rearm broke the cached wake: %d", k.wakes.at[0])
	}
}

// tickCounter counts raw Tick calls on top of fakeIdler's scripted acts,
// exposing the active list's fan-out directly.
type tickCounter struct {
	fakeIdler
	ticks int
}

func (c *tickCounter) Tick(now Cycle) {
	c.ticks++
	c.fakeIdler.Tick(now)
}

// TestActiveListSkipsDormantTickers pins the tentpole property: on
// executed cycles, components whose cached wake is in the future are not
// ticked at all. A component busy every cycle keeps the run executing,
// while a mostly-dormant neighbor must see only its scheduled wakes (plus
// the initial validation tick), not the busy component's ~1000 cycles —
// and must still act on exactly the cycles the stepped reference acts on.
func TestActiveListSkipsDormantTickers(t *testing.T) {
	run := func(skip bool) (acted []Cycle, ticks int) {
		var k Kernel
		busy := &busyBurst{busyUntil: 1000, lateWake: 1000}
		dormant := &tickCounter{fakeIdler: fakeIdler{wakes: []Cycle{200, 600}}}
		k.Register(busy)
		k.Register(dormant)
		k.SetIdleSkip(skip)
		k.Run(1000)
		return dormant.ticked, dormant.ticks
	}
	refActed, refTicks := run(false)
	fastActed, fastTicks := run(true)
	if len(refActed) != 2 || len(fastActed) != 2 ||
		refActed[0] != fastActed[0] || refActed[1] != fastActed[1] {
		t.Fatalf("acted at %v (stepped %v), want [200 600] in both modes", fastActed, refActed)
	}
	if refTicks != 1000 {
		t.Fatalf("stepped reference ticked the dormant idler %d times, want 1000", refTicks)
	}
	if fastTicks > 3 {
		t.Fatalf("active list ticked the dormant idler %d times, want <= 3 (its wakes plus initial validation)", fastTicks)
	}
}

// orderIdler records its tag into a shared log on each scripted wake.
type orderIdler struct {
	wakes []Cycle
	tag   int
	log   *[]int
}

func (o *orderIdler) Tick(now Cycle) {
	if len(o.wakes) > 0 && o.wakes[0] == now {
		*o.log = append(*o.log, o.tag)
		o.wakes = o.wakes[1:]
	}
}

func (o *orderIdler) NextActivity(now Cycle) (Cycle, bool) {
	if len(o.wakes) == 0 {
		return 0, false
	}
	if o.wakes[0] <= now {
		return now, true
	}
	return o.wakes[0], true
}

// TestActiveListPreservesRegistrationOrder pins the co-due ordering
// guarantee the SoC pipeline depends on: when several components are due
// on the same cycle, the active list ticks them in registration order,
// exactly like the stepped reference.
func TestActiveListPreservesRegistrationOrder(t *testing.T) {
	run := func(skip bool) []int {
		var k Kernel
		var log []int
		// All three co-due at 100 and 500; tags registered 0,1,2.
		for tag := 0; tag < 3; tag++ {
			k.Register(&orderIdler{wakes: []Cycle{100, 500}, tag: tag, log: &log})
		}
		k.SetIdleSkip(skip)
		k.Run(1000)
		return log
	}
	ref, fast := run(false), run(true)
	want := []int{0, 1, 2, 0, 1, 2}
	if len(ref) != len(want) || len(fast) != len(want) {
		t.Fatalf("co-due logs: stepped %v, active %v, want %v", ref, fast, want)
	}
	for i := range want {
		if ref[i] != want[i] || fast[i] != want[i] {
			t.Fatalf("co-due logs: stepped %v, active %v, want %v", ref, fast, want)
		}
	}
}

// settleRecorder records every SettleRun call the kernel makes.
type settleRecorder struct {
	fakeIdler
	settles []Cycle
}

func (s *settleRecorder) SettleRun(end Cycle) { s.settles = append(s.settles, end) }

// TestKernelSettlesOnRunExit pins the Settler hook: every Run segment —
// in every kernel mode — ends with SettleRun(horizon) so batched
// dormant-cycle bookkeeping can be flushed even when the active list
// never ticked the component again.
func TestKernelSettlesOnRunExit(t *testing.T) {
	for _, skip := range []bool{true, false} {
		var k Kernel
		s := &settleRecorder{fakeIdler: fakeIdler{wakes: []Cycle{10}}}
		k.Register(s)
		k.SetIdleSkip(skip)
		k.Run(100)
		k.RunFor(50)
		if len(s.settles) != 2 || s.settles[0] != 100 || s.settles[1] != 150 {
			t.Fatalf("skip=%v: SettleRun calls %v, want [100 150]", skip, s.settles)
		}
	}
}

// TestWakeHeapDecreaseKey exercises the indexed heap directly: re-arms
// are decrease-key (position-tracked, no duplicate entries), increases
// go through fix, and the top always tracks the minimum cached wake.
func TestWakeHeapDecreaseKey(t *testing.T) {
	var h wakeHeap
	for id := 0; id < 8; id++ {
		h.add(id)
		h.fix(id, Cycle(100+10*id))
	}
	if top := h.entries[0]; top.id != 0 || top.at != 100 {
		t.Fatalf("top (%d, %d), want (0, 100)", top.id, top.at)
	}
	// Decrease-key a deep entry to the top.
	h.fix(7, 5)
	if top := h.entries[0]; top.id != 7 || top.at != 5 {
		t.Fatalf("after decrease-key top (%d, %d), want (7, 5)", top.id, top.at)
	}
	// Increase it past everyone; the old minimum resurfaces.
	h.fix(7, 1000)
	if top := h.entries[0]; top.id != 0 || top.at != 100 {
		t.Fatalf("after increase top (%d, %d), want (0, 100)", top.id, top.at)
	}
	// pos must track every move, and the mirrored keys must agree.
	for i, e := range h.entries {
		if h.pos[e.id] != int32(i) {
			t.Fatalf("pos[%d] = %d, want %d", e.id, h.pos[e.id], i)
		}
		if h.at[e.id] != e.at {
			t.Fatalf("at[%d] = %d, entry holds %d", e.id, h.at[e.id], e.at)
		}
	}
	// Kernel.Rearm ignores increases (lazy): the cached bound only drops.
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{500}})
	k.Rearm(0, 50)
	if k.wakes.at[0] != 0 { // initial cached wake is 0 (due immediately)
		t.Fatalf("Rearm raised a cached wake to %d; increases must be lazy", k.wakes.at[0])
	}
}

// TestWakeHeapNeverIsNotUnregister pins the park-at-never semantics: an
// idler that reports ok=false stays in the heap (its entry is parked at
// never, not removed) and a later Rearm revives it.
func TestWakeHeapNeverIsNotUnregister(t *testing.T) {
	var k Kernel
	s := &cachedSleeper{wakeAt: sleeperNever} // never acts on its own
	k.Register(s)
	anchor := &fakeIdler{wakes: []Cycle{10, 2000}}
	k.Register(anchor)
	k.Run(100) // validates s once: entry parks at never
	if got := k.wakes.at[0]; got != never {
		t.Fatalf("dormant sleeper cached wake %d, want never", got)
	}
	k.At(300, func(now Cycle) { s.Rearm(now + 7) })
	k.Run(1500)
	if len(s.acted) != 1 || s.acted[0] != 307 {
		t.Fatalf("revived sleeper acted at %v, want [307]", s.acted)
	}
}

// TestKernelRegistrationOrderIrrelevantForSkipping pins the fix for the
// old one-time idler reversal in Run: fast-forward targets come off the
// wake heap, so registration order affects tick order (as documented)
// and nothing else.
func TestKernelRegistrationOrderIrrelevantForSkipping(t *testing.T) {
	mk := func(reverse bool) (acted [][]Cycle, skipped uint64) {
		var k Kernel
		a := &fakeIdler{wakes: []Cycle{5, 40, 700}}
		b := &fakeIdler{wakes: []Cycle{40, 300}}
		c := &cachedSleeper{wakeAt: 90}
		if reverse {
			k.Register(c)
			k.Register(b)
			k.Register(a)
		} else {
			k.Register(a)
			k.Register(b)
			k.Register(c)
		}
		k.Run(1000)
		return [][]Cycle{a.ticked, b.ticked, c.acted}, k.SkippedCycles()
	}
	fwd, fs := mk(false)
	rev, rs := mk(true)
	if fs != rs {
		t.Fatalf("skipped cycles differ with registration order: %d vs %d", fs, rs)
	}
	for i := range fwd {
		if len(fwd[i]) != len(rev[i]) {
			t.Fatalf("idler %d acted %v vs %v across registration orders", i, fwd[i], rev[i])
		}
		for j := range fwd[i] {
			if fwd[i][j] != rev[i][j] {
				t.Fatalf("idler %d acted %v vs %v across registration orders", i, fwd[i], rev[i])
			}
		}
	}
}

// TestWakeHeapMatchesPoll is the kernel-level differential property: a
// random population of self-timed idlers (stale-early cached bounds
// after every act) and cached sleepers re-armed by random external
// events must act on exactly the same cycles — and skip exactly the same
// stretches — under the wake heap as under the linear poll sweep and the
// cycle-stepped run.
func TestWakeHeapMatchesPoll(t *testing.T) {
	const horizon = 3000
	type mode int
	const (
		stepped mode = iota
		pollSkip
		heapSkip
	)
	run := func(seed uint64, m mode) (acted [][]Cycle, skipped uint64, now Cycle) {
		rng := NewRand(seed)
		var k Kernel
		k.SetIdleSkip(m != stepped)
		k.poll = m == pollSkip

		nFake := 1 + rng.Intn(4)
		nSleep := 1 + rng.Intn(4)
		var report []func() []Cycle
		for i := 0; i < nFake; i++ {
			var wakes []Cycle
			at := Cycle(0)
			for j := 0; j < 1+rng.Intn(12); j++ {
				at += Cycle(1 + rng.Intn(500))
				wakes = append(wakes, at)
			}
			f := &fakeIdler{wakes: wakes}
			k.Register(f)
			report = append(report, func() []Cycle { return f.ticked })
		}
		for i := 0; i < nSleep; i++ {
			s := &cachedSleeper{wakeAt: sleeperNever}
			if rng.Bool(0.5) {
				s.wakeAt = Cycle(rng.Intn(horizon))
			}
			k.Register(s)
			for j := 0; j < rng.Intn(6); j++ {
				at := Cycle(rng.Intn(horizon))
				delay := Cycle(rng.Intn(40))
				k.At(at, func(now Cycle) { s.Rearm(now + delay) })
			}
			report = append(report, func() []Cycle { return s.acted })
		}
		k.Run(horizon)
		acted = make([][]Cycle, len(report))
		for i, f := range report {
			acted[i] = f()
		}
		return acted, k.SkippedCycles(), k.Now()
	}
	prop := func(seed uint64) bool {
		ref, _, refNow := run(seed, stepped)
		poll, pollSkipped, pollNow := run(seed, pollSkip)
		heap, heapSkipped, heapNow := run(seed, heapSkip)
		if refNow != pollNow || refNow != heapNow {
			t.Errorf("seed %#x: final cycles %d / %d / %d", seed, refNow, pollNow, heapNow)
			return false
		}
		same := func(a, b [][]Cycle) bool {
			for i := range a {
				if len(a[i]) != len(b[i]) {
					return false
				}
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						return false
					}
				}
			}
			return true
		}
		if !same(ref, poll) {
			t.Errorf("seed %#x: poll reference diverged from stepped run: %v vs %v", seed, poll, ref)
			return false
		}
		if !same(ref, heap) {
			t.Errorf("seed %#x: wake heap diverged from stepped run: %v vs %v", seed, heap, ref)
			return false
		}
		if pollSkipped != heapSkipped {
			t.Errorf("seed %#x: poll skipped %d cycles, heap skipped %d — the heap target must equal the swept minimum",
				seed, pollSkipped, heapSkipped)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWakeHeapInvariant fuzzes interleaved decrease-keys (rearm) and
// arbitrary key moves (fix, the validation pass): after every operation
// batch the heap must satisfy the min-heap invariant with consistent
// position tracking and key mirroring. An earlier revision buffered the
// rearm sifts into a probe-time integration pass; this fuzz caught that
// one sift per dirty id cannot restore the invariant under simultaneous
// decreases, which is why re-arms now sift immediately.
func TestWakeHeapInvariant(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := NewRand(seed)
		var h wakeHeap
		n := 2 + rng.Intn(40)
		for id := 0; id < n; id++ {
			h.add(id)
			h.fix(id, Cycle(rng.Intn(1000)))
		}
		for round := 0; round < 6; round++ {
			for i := 0; i < 1+rng.Intn(2*n); i++ {
				h.rearm(rng.Intn(n), Cycle(rng.Intn(1000)))
			}
			for i := range h.entries {
				e := h.entries[i]
				if p := (i - 1) / 2; i > 0 && h.entries[p].at > e.at {
					t.Errorf("seed %#x round %d: heap violation at %d: parent %d > child %d",
						seed, round, i, h.entries[p].at, e.at)
					return false
				}
				if h.pos[e.id] != int32(i) || h.at[e.id] != e.at {
					t.Errorf("seed %#x round %d: bookkeeping broken for id %d", seed, round, e.id)
					return false
				}
			}
			// Raises (the validation pass) interleave with the next round.
			for i := 0; i < rng.Intn(n); i++ {
				h.fix(rng.Intn(n), Cycle(rng.Intn(1500)))
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
