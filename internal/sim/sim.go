// Package sim provides the simulation kernel used by every other
// subsystem: a cycle counter, a deterministic random-number generator,
// and a lightweight event scheduler for things that happen at known future
// cycles (frame boundaries, adaptation ticks, aging sweeps).
//
// One simulator cycle corresponds to one DRAM command-clock cycle. All
// components tick in this single clock domain; cross-domain effects (e.g.
// the LCD panel draining its read buffer in wall-clock time) are expressed
// as rates converted to bytes-per-cycle at configuration time.
//
// The kernel is event-driven with idle skipping: every registered
// component reports when it next has work (a Ticker is also an Idler),
// and the kernel fast-forwards the clock over stretches where every
// component is quiescent and no event is due, instead of stepping cycle
// by cycle through dead time.
//
// Wake scheduling is push-based: the kernel keeps per-ticker cached wake
// cycles in a 64-slot timing wheel of ticker-id bitmaps (wakes under 64
// cycles away sit in the slot of their cycle, later ones in one far set),
// components re-arm their cached wake through the WakeHandle returned by
// Register whenever an external action moves their next activity to an
// earlier cycle, and the fast-forward target is read off the wheel's
// occupancy word instead of polling every ticker's hint each executed
// cycle.
//
// Executed cycles use the wheel's current slot as the active-ticker list:
// a component is ticked iff its cached wake is at or before the current
// cycle, and its wake is re-keyed to its exact next activity right after
// the tick, so dormant components are not even called. The Ticker contract is
// therefore "ticked every cycle it may act", not "ticked every executed
// cycle", which imposes two obligations on components:
//
//   - Every external action that could make a dormant component act this
//     cycle or earlier than its cached wake must re-arm the kernel entry
//     at the moment it happens (see Idler), not at the component's next
//     tick — there may not be one.
//
//   - Per-cycle bookkeeping that a stepped run would accrue on dormant
//     ticks (stall counters, buffer occupancy integration) must be derived
//     from elapsed time on the next real tick (the batched-settle pattern)
//     and, because a run can end mid-dormancy, also settled at the run
//     horizon via the optional Settler interface.
//
// SetReference(true) selects the reference the differential suites compare
// the default mode against: full cycle-by-cycle stepping, every ticker
// ticked every cycle in registration order, so every tick re-derives its
// work from the component's live state and no cached wake decides
// anything. A component whose cache also narrows what a tick scans reads
// the switch through WakeHandle.Reference and scans everything instead.
// The switch lives on the Kernel, so concurrent simulations in one process
// never see each other's mode. Among co-due tickers the active list
// preserves registration order — the SoC pipeline order DMA units -> NoC
// -> MC -> DRAM -> adapters — so the stepped and skipping modes execute
// the same cycles' work in the same order.
//
// A ticker may tick parts of its own inside its Tick: a DMA unit ticks its
// traffic source and then its engine, and its wake is the earlier of the
// two answers. Edges between such parts are ordinary calls within one
// tick, so they need no wake.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in DRAM command-clock cycles.
type Cycle uint64

// never marks an unarmed cached wake: the ticker reported it will not act
// again without external input, so only a Rearm can revive it.
const never = ^Cycle(0)

// Ticker is a component that advances by one cycle at a time. Every
// ticker is an Idler: it reports its next activity, which is what lets the
// kernel skip it while it is dormant.
type Ticker interface {
	Idler
	// Tick advances the component to cycle now. In the reference mode
	// (SetReference(true)) the kernel calls Tick exactly once per ticker
	// per cycle, in registration order. In the default active-list mode a
	// ticker is only called on cycles its cached wake covers (wake <=
	// now: it sits in the wake wheel's current slot or its soon set);
	// dormant components are skipped entirely.
	// Components must therefore derive elapsed time from now rather than
	// counting Tick calls, and must keep their cached wake a sound lower
	// bound on their next action (see Idler).
	Tick(now Cycle)
}

// Settler is an optional Ticker extension for components that batch
// per-cycle bookkeeping (stall counters, occupancy integration) across
// dormant stretches and settle it on their next tick. Because the
// active-ticker list may leave such a component un-ticked from its last
// wake to the end of a run, the kernel calls SettleRun(end) when Run
// reaches its horizon, where end is the first cycle NOT simulated (the
// horizon). SettleRun must bring all externally observable statistics to
// exactly the state a stepped run would have after its final tick at
// end-1, and must be idempotent: it runs in every kernel mode and at the
// end of every Run segment, including segments where the component was
// ticked at end-1 already.
type Settler interface {
	SettleRun(end Cycle)
}

// Idler is the activity half of the Ticker contract. A ticker promises
// that, absent any new input from the rest of the system (events, other
// components' actions), its Tick will not act on the system — enqueue
// requests, forward packets, issue commands, or mutate externally
// observable counters — at any cycle strictly before the reported
// activity cycle.
//
// The contract is push-based. The kernel caches each ticker's most recent
// hint in its wake wheel and does NOT re-query every hint after every
// executed cycle; it re-queries a ticker only right after ticking it (the
// active-list re-key) or when its cached wake is due (at or before the
// current cycle) during a fast-forward probe. The cached wake is therefore required
// to be a sound LOWER bound on the ticker's true next activity at all
// times — doubly important under the active list, where a too-late bound
// does not merely skip a cycle but skips the component's Tick on cycles
// other components execute. The responsibility splits in two:
//
//   - Re-arm is mandatory on external wakes. Whenever another component's
//     action could advance this ticker's next action to an EARLIER cycle
//     than its cached entry — an upstream injection landing in its queue
//     mid-sleep, a downstream credit return unblocking it, a completion
//     freeing its window — the component performing the action (or the
//     wiring between them, see noc.Waker and dma.Engine) must call
//     WakeHandle.Rearm with the new wake cycle during the executed cycle
//     in which the action happens. Re-arming earlier than necessary is
//     always safe: the kernel executes a cycle that turns out to be
//     uneventful, re-validates the hint, and goes back to sleep. Failing
//     to re-arm lets the kernel skip past the action and breaks
//     simulation equivalence.
//
//   - Lazy increase is always safe. When a ticker's next activity moves
//     LATER (it consumed its queue, its tokens drained), it does not need
//     to tell the kernel: the stale too-early wake merely comes due, the
//     kernel re-queries NextActivity once, and the wake moves to its
//     correct slot. A ticker that reports ok=false is parked at never,
//     outside the wheel, but is never unregistered — a later Rearm
//     revives it.
//
// NextActivity itself must remain cheap and pure: it is the validation
// query for due wakes and the active list's post-tick re-key.
// Components answer from their live state (a router walks its port heads,
// an engine reads its queue, window and port); the kernel's wake wheel,
// not the component, keeps the answer between queries. The answer must
// be sound in ABSOLUTE time: a
// component whose lazy integration lags `now` (a token bucket whose
// funded cursor is behind, a buffer whose drain cursor is behind) must
// anchor its bound at that cursor — e.g. cursor + steps - 1, clamped up
// to now — never `now + steps` computed from stale state. The due-wake
// probe RAISES cached wakes from these answers; a bound even one cycle too
// late starves the component permanently. This rule is enforced
// statically: the wakebound analyzer in cmd/saravet flags NextActivity
// and Wake implementations that add mutable receiver state to `now`,
// unless the site carries a //sara:bound-ok justification (see the
// "Static analysis" section of the README).
type Idler interface {
	// NextActivity reports the earliest cycle >= now at which the
	// component may act on the system, or ok=false if it will never act
	// again without external input.
	NextActivity(now Cycle) (at Cycle, ok bool)
}

// WakeBinder is an optional interface for tickers that participate in
// push-based wake scheduling: Register hands the component its WakeHandle
// so the component (and the wiring around it) can re-arm its kernel wake
// when an external action moves its next activity earlier.
type WakeBinder interface {
	// BindWake receives the component's wake handle at registration time.
	BindWake(h WakeHandle)
}

// WakeHandle re-arms one registered ticker's cached wake cycle in the
// kernel's wake wheel and reports the kernel's reference mode. The zero
// value is inert (Rearm is a no-op, Reference reads false), so components
// can hold a handle unconditionally and be driven either by a kernel or
// standalone in unit tests.
type WakeHandle struct {
	k  *Kernel
	id int
}

// Rearm lowers the ticker's cached wake to at if the cached value is
// later (decrease-key). Raising a cached wake is impossible by design:
// increases are reconciled lazily when the cached wake comes due, so a
// spurious early Rearm can cost an uneventful executed cycle but
// can never lose a wake.
//
//sara:hotpath
func (h WakeHandle) Rearm(at Cycle) {
	if h.k == nil {
		return
	}
	h.k.Rearm(h.id, at)
}

// Reference reports whether the handle's kernel runs as the stepped
// reference (see Kernel.SetReference): a component whose cache narrows
// what its tick scans must then scan everything.
//
//sara:hotpath
func (h WakeHandle) Reference() bool { return h.k != nil && h.k.reference }

// event is a scheduled callback. Exactly one of fn and argFn is set;
// argFn carries a caller-supplied payload so hot paths (transaction
// completion) can schedule a single long-lived function with a pointer
// argument instead of allocating a fresh closure per event.
type event struct {
	at    Cycle
	seq   uint64 // tie-break so same-cycle events fire in schedule order
	fn    func(now Cycle)
	argFn func(now Cycle, arg any)
	arg   any
}

// eventHeap is a min-heap of events ordered by (at, seq), stored by value
// in a plain slice. Push and pop sift manually instead of going through
// container/heap, which would box every element in an interface and
// allocate on the steady-state completion path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // clear callback/payload references for the GC
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q.less(l, s) {
			s = l
		}
		if r < n && q.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	return top
}

// Kernel owns the clock, the ordered ticker list, the event queue and the
// wake wheel. The zero value is ready to use, with idle skipping enabled
// (the reference mode off).
type Kernel struct {
	now Cycle
	// tickers are the registered components in registration order, indexed
	// by ticker id.
	tickers []Ticker
	wakes   wakeWheel
	// settlers are the registered tickers that batch dormant-cycle
	// bookkeeping; Run calls SettleRun on each when it reaches its
	// horizon so end-of-run statistics are exact even when the active
	// list left a component un-ticked over a trailing dormant stretch.
	settlers []Settler
	// reference is the SetReference switch: stepped execution, every
	// ticker ticked every cycle.
	reference bool
	// poll replaces the active list and the wheel-driven fast-forward
	// with the linear NextActivity sweep. Only this package's tests set
	// it, to check the wheel against the sweep target for target.
	poll    bool
	events  eventHeap
	seq     uint64
	started bool
	skipped uint64
	// wd, when non-nil, activates the run-loop guardrails: RunChecked
	// routes through the guarded loop in guard.go instead of Run's hot
	// loop, so a nil watchdog costs nothing on the steady-state path.
	// executed counts executed (non-skipped) cycles since the watchdog
	// was armed; the remaining fields are the watchdog's check cadence
	// and progress bookkeeping (see guard.go).
	wd           *Watchdog
	executed     uint64
	wdCountdown  uint64
	lastProgress uint64
	progressAt   uint64
}

// Now reports the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// SkippedCycles reports how many cycles Run fast-forwarded over instead of
// executing. It is a diagnostic: (executed + skipped) == Now() for a run
// started at cycle 0.
func (k *Kernel) SkippedCycles() uint64 { return k.skipped }

// SetReference switches the kernel into the stepped reference the
// differential suites compare against (off by default): no cycle is
// skipped, every ticker is ticked every cycle, and every component
// registered with this kernel reads the switch through
// WakeHandle.Reference.
//
// Switching the reference off re-files every cached wake by the current
// clock: the stepped run advanced it without re-keying any wake, so keys
// it passed would otherwise sit in slots of the wake wheel that now
// stand for future cycles.
func (k *Kernel) SetReference(on bool) {
	k.reference = on
	if !on {
		k.wakes.reseat(k.now)
	}
}

// Register appends t to the per-cycle tick list and returns t's wake
// handle. Components are ticked in registration order, which the SoC
// assembly uses to realize the pipeline order DMA units -> NoC -> MC ->
// DRAM -> responses -> adapters; the wake wheel files tickers by
// cached wake cycle, so registration order never affects fast-forward
// targets. If t implements WakeBinder the handle is also pushed into the
// component here, so assemblies get push wiring for free. Register
// panics if the simulation has already started, because inserting a
// ticker mid-run would silently skip its earlier cycles.
func (k *Kernel) Register(t Ticker) WakeHandle {
	if k.started {
		panic(invariant("sim: Register after simulation started"))
	}
	h := WakeHandle{k: k, id: len(k.tickers)}
	k.tickers = append(k.tickers, t)
	k.wakes.add(h.id, k.now)
	if wb, ok := t.(WakeBinder); ok {
		wb.BindWake(h)
	}
	if s, ok := t.(Settler); ok {
		k.settlers = append(k.settlers, s)
	}
	return h
}

// Rearm lowers ticker id's cached wake cycle to at (a decrease-key; see
// wakeWheel.rearm); a cached wake at or before at is left untouched. A
// re-arm at or before the current cycle files the id in the wheel's soon
// set, which stepActive's walk reads, so during the walk an id it has not
// reached yet ticks this cycle — the same-cycle forward edge. Components
// normally call this through their WakeHandle. An out-of-range id panics
// with an *InvariantError: a dropped re-arm is a silently missed wake —
// the simulation would diverge, not fail — so bad wiring must die loudly
// instead.
func (k *Kernel) Rearm(id int, at Cycle) {
	if id < 0 || id >= len(k.wakes.at) {
		panic(invariant(fmt.Sprintf(
			"sim: Rearm of unregistered ticker id %d (%d tickers registered)",
			id, len(k.wakes.at))))
	}
	k.wakes.rearm(id, at, k.now)
}

// At schedules fn to run at cycle at, before that cycle's tickers. If at is
// in the past the event fires on the next Step.
func (k *Kernel) At(at Cycle, fn func(now Cycle)) {
	k.seq++
	k.events.push(event{at: at, seq: k.seq, fn: fn})
}

// AtArg schedules fn(now, arg) at cycle at. It exists for hot paths: a
// single long-lived fn plus a per-event pointer payload schedules without
// allocating, where a fresh closure per event would not.
func (k *Kernel) AtArg(at Cycle, fn func(now Cycle, arg any), arg any) {
	k.seq++
	k.events.push(event{at: at, seq: k.seq, argFn: fn, arg: arg})
}

// After schedules fn to run delay cycles from now.
func (k *Kernel) After(delay Cycle, fn func(now Cycle)) {
	k.At(k.now+delay, fn)
}

// Every schedules fn at period, 2*period, ... relative to the current cycle.
// It reschedules itself forever; the run simply ends when Run's horizon is
// reached.
func (k *Kernel) Every(period Cycle, fn func(now Cycle)) {
	if period == 0 {
		panic(invariant("sim: Every with zero period"))
	}
	var rearm func(now Cycle)
	rearm = func(now Cycle) {
		fn(now)
		k.At(now+period, rearm)
	}
	k.At(k.now+period, rearm)
}

// Step advances the simulation by exactly one cycle: due events first,
// then the registered tickers. In the default active-list mode only due
// tickers — cached wake at or before the current cycle — are called; in
// the reference mode every ticker is ticked. Step never skips a cycle.
//
//sara:hotpath
func (k *Kernel) Step() {
	k.started = true
	for len(k.events) > 0 && k.events[0].at <= k.now {
		e := k.events.pop()
		if e.fn != nil {
			e.fn(k.now)
		} else {
			e.argFn(k.now, e.arg)
		}
	}
	if k.reference || k.poll {
		for _, t := range k.tickers {
			t.Tick(k.now)
		}
	} else {
		k.stepActive()
	}
	k.now++
	k.wakes.advanced(k.now)
}

// stepActive is Step's tick loop in active-list mode: tick every due
// ticker — cached wake at or before now — in registration order, and
// re-key each ticked id to its exact next activity. The due set is the
// wake wheel's current slot plus its soon set, not every registered
// ticker: the walk visits the ids of soon | slot[now] one bitmap word at a
// time in ascending id order, which is registration order. So an executed
// cycle costs the due tickers, not the whole roster.
//
// Same-cycle forward edges join the set mid-walk: a router delivering
// into a dormant controller re-arms the receiver at now, Rearm files it in soon, and because the walk
// re-reads the word after every tick, masking only the ids at or below
// the one just ticked, it reaches the receiver this cycle. Backward
// same-cycle edges need no tick: a stepped run's earlier-registered
// component had already ticked when the edge fired, so both modes first
// act on it the next cycle (the mask hides it now, and soon keeps it for
// the next walk). Every ticked id is re-keyed from a live NextActivity
// query to a cycle after now, so the current slot is empty after the walk,
// the wheel's keys are exact, and the fast-forward probe computes the same
// skip targets as a linear sweep over every hint.
//
//sara:hotpath
func (k *Kernel) stepActive() {
	now := k.now
	w := &k.wakes
	s := int(now & wheelMask)
	slot := w.slots[s*w.words : (s+1)*w.words]
	for wd := range slot {
		mask := ^uint64(0)
		for {
			m := (w.soon[wd] | slot[wd]) & mask
			if m == 0 {
				break
			}
			b := bits.TrailingZeros64(m)
			mask = ^uint64(0) << (b + 1)
			w.soon[wd] &^= 1 << b
			slot[wd] &^= 1 << b
			i := wd<<6 | b
			t := k.tickers[i]
			t.Tick(now)
			next, ok := t.NextActivity(now + 1)
			if !ok {
				next = never
			}
			w.link(i, next, now)
		}
	}
	w.cnt[s] = 0
	w.occ &^= 1 << s
}

// Run advances the simulation until the clock reaches horizon (exclusive).
// Outside the reference mode, quiescent stretches — no event due and
// every ticker's cached wake strictly in the future — are fast-forwarded
// instead of executed. On reaching the horizon Run settles every
// registered Settler, so statistics batched across dormant stretches are
// exact even for components the active list never ticked again.
func (k *Kernel) Run(horizon Cycle) {
	skip := !k.reference
	for k.now < horizon {
		k.Step()
		if skip && k.now < horizon {
			k.fastForward(horizon)
		}
	}
	k.settleRun()
}

// Settle flushes every registered Settler's batched dormant-cycle
// bookkeeping through the current clock, exactly as the end of a Run
// segment would. SettleRun implementations are idempotent, so Settle is
// safe mid-run — the analysis sampler calls it from a recurring event so
// windowed stall and occupancy statistics are exact at sample boundaries
// even for components the active list left dormant.
func (k *Kernel) Settle() { k.settleRun() }

// settleRun flushes batched dormant-cycle bookkeeping at the end of a Run
// segment. It runs in every mode: in the stepped reference the final executed
// cycle ticked everyone, so each SettleRun is an idempotent no-op there.
func (k *Kernel) settleRun() {
	for _, s := range k.settlers {
		s.SettleRun(k.now)
	}
}

// nextWakePoll computes the fast-forward target by the linear sweep over
// every live hint: the next due event or the earliest ticker activity,
// capped at horizon; k.now means something is due immediately. It serves
// the poll field this package's tests set, as the oracle for the wake
// wheel's cached bounds (which may never be later).
func (k *Kernel) nextWakePoll(horizon Cycle) Cycle {
	target := horizon
	if len(k.events) > 0 {
		at := k.events[0].at
		if at <= k.now {
			return k.now
		}
		if at < target {
			target = at
		}
	}
	for _, t := range k.tickers {
		next, ok := t.NextActivity(k.now)
		if !ok {
			continue
		}
		if next <= k.now {
			return k.now
		}
		if next < target {
			target = next
		}
	}
	return target
}

// nextWake computes the fast-forward target from the wake wheel: the
// next due event or the smallest cached wake, capped at horizon. Only the
// due ids — soon and the current slot — are re-queried: each is either
// genuinely busy (the probe answers "now", and its stale-low key stays, a
// sound lower bound) or a consumed wake, which the query raises to its
// exact next cycle or parks at never. A FUTURE cached wake is trusted
// without a query: every cached wake is a sound lower bound, so skipping
// to the wheel minimum can never skip past real activity — at worst a
// stale-early bound wakes the kernel for one uneventful executed cycle,
// whose probe then raises it. That trade (a rare extra cycle instead of
// validating every future bound per probe) keeps the probe O(due ids);
// the linear sweep instead computes the exact swept minimum, so it may
// skip slightly more while observable behavior stays bit-identical.
//
//sara:hotpath
func (k *Kernel) nextWake(horizon Cycle) Cycle {
	now := k.now
	target := horizon
	if len(k.events) > 0 {
		at := k.events[0].at
		if at <= now {
			return now
		}
		if at < target {
			target = at
		}
	}
	w := &k.wakes
	s := int(now & wheelMask)
	slot := w.slots[s*w.words : (s+1)*w.words]
	for wd := range slot {
		for m := w.soon[wd] | slot[wd]; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			i := wd<<6 | b
			at, ok := k.tickers[i].NextActivity(now)
			if !ok {
				at = never
			} else if at <= now {
				// Immediately busy. Its stale-low key stays: it is still
				// a sound lower bound, and the ids after it stay due.
				return now
			}
			w.set(i, at, now)
		}
	}
	if at := w.next(now); at < target {
		target = at
	}
	return target
}

// fastForward advances the clock to the earliest upcoming activity —
// the next due event or the earliest cached wake — capped at horizon-1 so
// the run's final cycle always executes, whether the wheel or the poll
// sweep picks the target, so both execute — and count as skipped — the
// same cycles (bookkeeping accrued over a trailing quiescent stretch is
// settled via Settler at the horizon). It returns without moving the
// clock if anything is due now.
func (k *Kernel) fastForward(horizon Cycle) {
	var target Cycle
	if k.poll {
		target = k.nextWakePoll(horizon - 1)
	} else {
		target = k.nextWake(horizon - 1)
	}
	if target > k.now {
		k.skipped += uint64(target - k.now)
		k.now = target
		k.wakes.advanced(k.now)
	}
}

// RunFor advances the simulation by n cycles.
func (k *Kernel) RunFor(n Cycle) { k.Run(k.now + n) }
