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
// Wake scheduling is push-based: the kernel keeps an indexed min-heap of
// per-ticker cached wake cycles, components re-arm their heap entry
// through the WakeHandle returned by Register whenever an external action
// moves their next activity to an earlier cycle, and the fast-forward
// target is read off the heap top instead of polling every ticker's hint
// each executed cycle.
//
// Executed cycles use the same heap as an active-ticker list: a component
// is ticked iff its cached wake is at or before the current cycle, and its
// entry is re-keyed to its exact next activity right after the tick, so
// dormant components are not even called. The Ticker contract is
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
// preserves registration order — the SoC pipeline order sources -> DMA ->
// NoC -> MC -> DRAM -> adapters — so the stepped and skipping modes
// execute the same cycles' work in the same order.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in DRAM command-clock cycles.
type Cycle uint64

// never marks an unarmed wake-heap entry: the ticker reported it will not
// act again without external input, so only a Rearm can revive it.
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
	// now); dormant components are skipped entirely.
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
// hint in an indexed wake heap and does NOT re-query every hint after
// every executed cycle; it re-queries a ticker only right after ticking
// it (the active-list re-key) or when its cached entry reaches the heap
// top during a fast-forward probe. The cached entry is therefore required
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
//     to tell the kernel: the stale too-early entry merely surfaces at
//     the heap top, the kernel re-queries NextActivity once, and the
//     entry sinks to its correct place. A ticker that reports ok=false
//     parks at the heap bottom but is never unregistered — a later Rearm
//     revives it.
//
// NextActivity itself must remain cheap and pure: it is the validation
// query for the heap top and the active list's post-tick re-key.
// Components that cache their wake cycle should answer from the cache in
// O(1). The answer must be sound in ABSOLUTE time: a
// component whose lazy integration lags `now` (a token bucket whose
// funded cursor is behind, a buffer whose drain cursor is behind) must
// anchor its bound at that cursor — e.g. cursor + steps - 1, clamped up
// to now — never `now + steps` computed from stale state. The heap-top
// probe RAISES entries from these answers; a bound even one cycle too
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
// kernel's wake heap and reports the kernel's reference mode. The zero
// value is inert (Rearm is a no-op, Reference reads false), so components
// can hold a handle unconditionally and be driven either by a kernel or
// standalone in unit tests.
type WakeHandle struct {
	k  *Kernel
	id int
}

// Rearm lowers the ticker's cached wake to at if the cached value is
// later (decrease-key). Raising a cached wake is impossible by design:
// increases are reconciled lazily when the entry reaches the heap top,
// so a spurious early Rearm can cost an uneventful executed cycle but
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

// wakeEntry is one ticker's slot in the wake heap; keys live inline so
// sift compares and swaps stay within one contiguous array.
type wakeEntry struct {
	at Cycle
	id int32
}

type wakeHeap struct {
	// entries is the heap itself; keys live inline so sift compares and
	// swaps stay within one contiguous array instead of chasing three.
	entries []wakeEntry
	// at mirrors each id's cached wake and pos tracks each id's index in
	// entries, making rearm an O(1) no-op test and fix an O(log n)
	// position-tracked sift instead of a duplicate-entry push (which
	// would allocate on the steady-state wake path).
	at  []Cycle
	pos []int32
}

// add registers a new ticker with an immediately-due wake (cycle 0), so
// the first fast-forward probe validates every hint once. The new entry
// is sifted into place so the invariant holds even when entries were
// re-keyed between adds.
func (h *wakeHeap) add(id int) {
	h.at = append(h.at, 0)
	h.entries = append(h.entries, wakeEntry{at: 0, id: int32(id)})
	h.pos = append(h.pos, int32(len(h.entries)-1))
	h.siftUp(len(h.entries) - 1)
}

// rearm lowers id's cached wake (decrease-key); at values at or above
// the cached bound are dropped without touching the heap.
func (h *wakeHeap) rearm(id int, at Cycle) {
	if at >= h.at[id] {
		return
	}
	h.fix(id, at)
}

// fix sets id's cached wake and restores heap order in the appropriate
// direction. The probe's validation pass uses it on an integrated heap.
func (h *wakeHeap) fix(id int, c Cycle) {
	old := h.at[id]
	h.at[id] = c
	h.entries[h.pos[id]].at = c
	if c < old {
		h.siftUp(int(h.pos[id]))
	} else if c > old {
		h.siftDown(int(h.pos[id]))
	}
}

// Rearm buffering note: an earlier revision deferred these sifts into a
// dirty list integrated at probe time; property fuzzing showed one
// siftUp per dirty id cannot restore the invariant under simultaneous
// decreases (a displaced ancestor can land above an already-settled
// dirty entry), so re-arms sift immediately and correctness stays local
// to the two classic operations.

func (h *wakeHeap) siftUp(i int) {
	q := h.entries
	e := q[i]
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if e.at >= q[p].at {
			break
		}
		q[i] = q[p]
		h.pos[q[i].id] = int32(i)
		i = p
		moved = true
	}
	if moved {
		q[i] = e
		h.pos[e.id] = int32(i)
	}
}

func (h *wakeHeap) siftDown(i int) {
	q := h.entries
	n := len(q)
	e := q[i]
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		at := e.at
		if l < n && q[l].at < at {
			s, at = l, q[l].at
		}
		if r < n && q[r].at < at {
			s = r
		}
		if s == i {
			break
		}
		q[i] = q[s]
		h.pos[q[i].id] = int32(i)
		q[s] = e
		h.pos[e.id] = int32(s)
		i = s
	}
}

// Kernel owns the clock, the ordered ticker list, the event queue and the
// wake heap. The zero value is ready to use, with idle skipping enabled
// (the reference mode off).
type Kernel struct {
	now Cycle
	// tickers are the registered components in registration order, indexed
	// by wake-heap id.
	tickers []Ticker
	wakes   wakeHeap
	// settlers are the registered tickers that batch dormant-cycle
	// bookkeeping; Run calls SettleRun on each when it reaches its
	// horizon so end-of-run statistics are exact even when the active
	// list left a component un-ticked over a trailing dormant stretch.
	settlers []Settler
	// due is stepActive's due set, one bit per ticker id: the wake-heap
	// descent marks every entry with at <= now, and a same-cycle re-arm
	// of an id at or after dueFrom joins it mid-walk. dueFrom is the id
	// after the one being ticked, and len(tickers) outside the walk, so a
	// re-arm from an event or from outside Run never touches the set.
	// stack is the descent's scratch. Register sizes due and stack, so
	// the walk never allocates.
	due     []uint64
	dueFrom int
	stack   []int32
	// reference is the SetReference switch: stepped execution, every
	// ticker ticked every cycle.
	reference bool
	// poll replaces the active list and the heap-driven fast-forward
	// with the linear NextActivity sweep. Only this package's tests set
	// it, to check the heap against the sweep target for target.
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
func (k *Kernel) SetReference(on bool) { k.reference = on }

// Register appends t to the per-cycle tick list and returns t's wake
// handle. Components are ticked in registration order, which the SoC
// assembly uses to realize the pipeline order sources -> DMAs -> NoC ->
// MC -> DRAM -> responses -> adapters; the wake heap orders itself by
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
	k.wakes.add(h.id)
	k.dueFrom = len(k.tickers)
	if h.id>>6 == len(k.due) {
		k.due = append(k.due, 0)
	}
	if len(k.tickers) > cap(k.stack) {
		k.stack = make([]int32, 0, 2*len(k.tickers))
	}
	if wb, ok := t.(WakeBinder); ok {
		wb.BindWake(h)
	}
	if s, ok := t.(Settler); ok {
		k.settlers = append(k.settlers, s)
	}
	return h
}

// Rearm lowers ticker id's cached wake cycle to at (a decrease-key; see
// wakeHeap.rearm); a cached wake at or before at is left untouched.
// During stepActive's walk, a re-arm at or before the current cycle of an
// id the walk has not reached yet also adds the id to the due set — the
// same-cycle forward edge. Components normally call this through their
// WakeHandle. An out-of-range id panics with an *InvariantError: a
// dropped re-arm is a silently missed wake — the simulation would
// diverge, not fail — so bad wiring must die loudly instead.
func (k *Kernel) Rearm(id int, at Cycle) {
	if id < 0 || id >= len(k.wakes.at) {
		panic(invariant(fmt.Sprintf(
			"sim: Rearm of unregistered ticker id %d (%d tickers registered)",
			id, len(k.wakes.at))))
	}
	k.wakes.rearm(id, at)
	if id >= k.dueFrom && at <= k.now {
		k.due[id>>6] |= 1 << (id & 63)
	}
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
}

// stepActive is Step's tick loop in active-list mode: tick every due
// ticker — cached wake at or before now — in registration order, and
// re-key each ticked entry to its exact next activity. The due set is read
// off the wake heap, not off every registered ticker: a descent from the
// root, pruned at the first entry in the future, marks the due ids in a
// bitset (markDue), and the walk visits the set bits in ascending id
// order, which is registration order. So an executed cycle costs the due
// tickers plus the heap entries bounding them, not the whole roster.
//
// Same-cycle forward edges join the set mid-walk: a source enqueueing
// into a dormant engine, or a router into a dormant controller, re-arms
// the receiver at now, and Rearm sets the receiver's bit because its id
// lies after the one being ticked; the walk re-reads the bitset word after
// every tick, so it reaches the receiver this cycle. Backward same-cycle
// edges need no tick: a stepped run's earlier-registered component had
// already ticked when the edge fired, so both modes first act on it the
// next cycle (every backward edge re-arms at now+1 or via a pre-tick
// event, and the next descent finds it). Because every ticked entry is
// re-keyed from a live NextActivity query, the heap bounds are exact after
// each active step, and the fast-forward probe computes the same skip
// targets as a linear sweep over every hint.
//
//sara:hotpath
func (k *Kernel) stepActive() {
	now := k.now
	k.markDue(now)
	for w := range k.due {
		for k.due[w] != 0 {
			b := bits.TrailingZeros64(k.due[w])
			k.due[w] &^= 1 << b
			i := w<<6 | b
			k.dueFrom = i + 1
			t := k.tickers[i]
			t.Tick(now)
			next, ok := t.NextActivity(now + 1)
			if !ok {
				next = never
			}
			k.wakes.fix(i, next)
		}
	}
	k.dueFrom = len(k.tickers)
}

// markDue sets the due bit of every wake-heap entry with at <= now. The
// heap order makes those entries a subtree hanging off the root, so a
// depth-first descent that stops at every future entry visits each due
// entry once and only their children besides.
//
//sara:hotpath
func (k *Kernel) markDue(now Cycle) {
	q := k.wakes.entries
	if len(q) == 0 || q[0].at > now {
		return
	}
	st := append(k.stack[:0], 0) //sara:alloc-ok Register sizes the stack to the ticker count, which bounds the due subtree
	for len(st) > 0 {
		i := st[len(st)-1]
		st = st[:len(st)-1]
		id := q[i].id
		k.due[id>>6] |= 1 << (id & 63)
		if l := 2*i + 1; int(l) < len(q) && q[l].at <= now {
			st = append(st, l) //sara:alloc-ok bounded by the ticker count (see above)
		}
		if r := 2*i + 2; int(r) < len(q) && q[r].at <= now {
			st = append(st, r) //sara:alloc-ok bounded by the ticker count (see above)
		}
	}
	k.stack = st
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
// heap's cached bounds (which may never be later).
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

// nextWakeHeap computes the fast-forward target from the wake heap: the
// next due event or the heap top, capped at horizon. Only entries whose
// cached wake is at or before the current cycle are re-queried — they
// are either genuinely busy (probe answers "now") or consumed wakes,
// which the query raises to their exact next cycle or parks at never.
// A FUTURE cached wake is trusted without a query: every cached wake is
// a sound lower bound, so skipping to the heap minimum can never skip
// past real activity — at worst a stale-early bound wakes the kernel
// for one uneventful executed cycle, whose probe then raises it. That
// trade (a rare extra cycle instead of validating every future bound
// per probe) is what keeps the probe O(1) once the due entries are
// resolved; the linear sweep instead computes the exact swept minimum,
// so it may skip slightly more while observable behavior stays
// bit-identical.
func (k *Kernel) nextWakeHeap(horizon Cycle) Cycle {
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
	h := &k.wakes
	for len(h.entries) > 0 {
		top := h.entries[0]
		if top.at > k.now {
			// No busy suspicion left: the heap minimum bounds every
			// ticker's next activity from below.
			if top.at < target {
				target = top.at
			}
			break
		}
		id := int(top.id)
		at, ok := k.tickers[id].NextActivity(k.now)
		if !ok {
			h.fix(id, never)
			continue
		}
		if at <= k.now {
			// Immediately busy. The stale-low key is left in place: it
			// is still a sound lower bound.
			return k.now
		}
		h.fix(id, at)
	}
	return target
}

// fastForward advances the clock to the earliest upcoming activity —
// the next due event or the earliest cached wake — capped at horizon-1 so
// the run's final cycle always executes, whether the heap or the poll
// sweep picks the target, so both execute — and count as skipped — the
// same cycles (bookkeeping accrued over a trailing quiescent stretch is
// settled via Settler at the horizon). It returns without moving the
// clock if anything is due now.
func (k *Kernel) fastForward(horizon Cycle) {
	var target Cycle
	if k.poll {
		target = k.nextWakePoll(horizon - 1)
	} else {
		target = k.nextWakeHeap(horizon - 1)
	}
	if target > k.now {
		k.skipped += uint64(target - k.now)
		k.now = target
	}
}

// RunFor advances the simulation by n cycles.
func (k *Kernel) RunFor(n Cycle) { k.Run(k.now + n) }
