// Package dma implements the DMA engines that sit between a core's
// traffic source and the on-chip network. Each DMA keeps a bounded queue
// of generated requests, injects them into its NoC port subject to an
// outstanding-transaction window, stamps every transaction with the
// priority its adapter most recently chose (Section 3.2), and routes
// completion notifications back to the source and the performance meter.
//
// Injection is event-driven: the engine caches its next-injection cycle
// (wakeAt) instead of inspecting its queue, window and port every cycle.
// The three events that can make an injection possible earlier each
// re-arm the cache and the kernel's wake heap: a source enqueue
// (Enqueue, kernel entry only — the live-queue Tick gate needs no cache
// update), a completion freeing a window slot (Deliver), and a credit
// return from the NoC port it injects into (Wake, wired through
// noc.Port.OnCredit). Under the kernel's active-ticker list a dormant
// engine is not ticked at all; with idle skipping off, ticks strictly
// before wakeAt settle the batched stall accounting in O(1), and
// SettleRun flushes the same accounting at the run horizon. A kernel in
// reference mode (sim.Kernel.SetReference) makes the engine ignore wakeAt
// and inspect its queue, window and port every cycle, the per-cycle
// reference the differential suites compare the cached wake against.
package dma

import (
	"fmt"

	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// The injection and injection-wake trace edges are per-engine probes,
// like the router probes of internal/noc: nil-checked function fields
// installed through SetTrace (for a whole System, through
// core.System.Probe), so with no subscriber the disabled path stays
// zero-cost.

// InjectFn observes one injection: which engine injected which
// transaction (id, address) into its NoC port at now.
type InjectFn = func(now sim.Cycle, source int, id uint64, addr uint64)

// WakeFn observes one injection-wake re-arm of the cached next-injection
// cycle: which engine re-armed to at, and why — 'D' for a completion
// delivery, 'C' for a port credit return. The enqueue edge re-arms only
// the kernel's wake entry, never the cache — the Tick gate reads the
// live queue — so it has no wake to trace. The re-arm stream is a
// function of the simulated behavior alone, so it must be bit-identical
// between the idle-skipping run and the stepped force-scan reference — a
// stale or missing wake diverges this trace instead of silently stalling
// a core.
type WakeFn = func(source int, at sim.Cycle, cause byte)

// Trace is one engine's set of trace probes; nil fields are disabled.
type Trace struct {
	Inject InjectFn
	Wake   WakeFn
}

// SetTrace installs the engine's trace probes, replacing the previous
// set. Install probes only while the engine is not running.
func (e *Engine) SetTrace(t Trace) { e.trace = t }

// never marks an unarmed injection wake: nothing can be injected until an
// external event (enqueue, completion, credit) re-arms the engine.
const never = ^sim.Cycle(0)

// CompletionFunc observes a finished transaction.
type CompletionFunc func(t *txn.Transaction, now sim.Cycle)

// request is a generated but not-yet-injected memory request.
type request struct {
	kind txn.Kind
	addr txn.Addr
	size uint32
}

// Config parameterizes one DMA engine.
type Config struct {
	// Name labels the DMA in reports, e.g. "ImageProc-rd".
	Name string
	// Core is the owning core's name; figures aggregate DMAs by core.
	Core string
	// Class selects the memory-controller queue.
	Class txn.Class
	// Window bounds the number of injected-but-incomplete transactions.
	Window int
	// MaxPending bounds the generated-but-not-injected request queue.
	MaxPending int
	// Pool, when set, recycles completed transactions so the steady-state
	// inject/complete path allocates nothing. All engines of one system
	// share a pool; the simulator is single-threaded.
	Pool *txn.Pool
}

// Stats holds the DMA's counters.
type Stats struct {
	Generated      uint64
	Injected       uint64
	Completed      uint64
	BytesCompleted uint64
	// TotalLatency accumulates end-to-end cycles for completed reads and
	// writes, for average-latency reporting.
	TotalLatency uint64
	// InjectStalls counts cycles where a pending request existed but the
	// NoC port was full or the window exhausted.
	InjectStalls uint64
}

// Engine is one DMA unit.
type Engine struct {
	cfg  Config
	id   int
	port *noc.Port
	hop  sim.Cycle

	priority txn.Priority
	// urgent is probed at injection time for the frame-rate baseline; nil
	// means never urgent. It receives the injection cycle: under the
	// active-ticker list the probed source may not have been ticked this
	// cycle, so any time-dependent state it reads must be derived from
	// now rather than from its own last tick.
	urgent func(now sim.Cycle) bool

	pending     []request
	outstanding int
	nextID      *uint64

	// wakeAt is the cached next-injection cycle: Tick runs the injection
	// loop only at or after it, and parks it at never on exit (every way
	// the loop can stop — queue empty, window full, port full — is
	// un-stuck only by a re-arming event). It sits with the other
	// tick-gate fields so the dormant fast path touches one cache line.
	wakeAt sim.Cycle

	// lastTick and stalled batch the InjectStalls accounting across
	// cycles the injection loop did not run (kernel-skipped or dormant):
	// a stalled engine's blockers (full window, full port) cannot change
	// without one of the re-arming events, each of which forces the loop
	// to run on its cycle, so every loop-free cycle in between stalled as
	// well and is counted in one step.
	lastTick sim.Cycle
	stalled  bool

	onComplete []CompletionFunc
	stats      Stats

	// kern and srcWake push re-arms into the kernel wake heap, for this
	// engine and for the traffic source feeding it: a source blocked on
	// a full pending queue, or waiting on completions (display/camera
	// in-flight accounting), would otherwise never be re-validated under
	// push-based wake scheduling. srcWakeOnDeliver marks sources whose
	// activity hint reads completion-mutated state: only those need a
	// source re-arm per delivery; other sources' hints cannot move
	// earlier on a completion, and skipping the re-arm keeps the
	// per-completion path off the wake heap.
	kern             sim.WakeHandle
	srcWake          sim.WakeHandle
	srcWakeOnDeliver bool

	// trace holds the engine's trace probes (see SetTrace).
	trace Trace
}

// New builds a DMA engine. id must be unique per system; nextID is the
// system-wide transaction ID counter; port is the engine's NoC input port
// and hop its injection link latency. The engine registers itself as the
// port's credit sink: a pop of the full port re-arms the injection wake.
func New(cfg Config, id int, nextID *uint64, port *noc.Port, hop sim.Cycle) *Engine {
	if cfg.Window <= 0 {
		panic(fmt.Sprintf("dma %s: window must be positive", cfg.Name))
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 2 * cfg.Window
	}
	e := &Engine{cfg: cfg, id: id, nextID: nextID, port: port, hop: hop}
	port.OnCreditArmed(e)
	return e
}

// Name returns the DMA label.
func (e *Engine) Name() string { return e.cfg.Name }

// Core returns the owning core's name.
func (e *Engine) Core() string { return e.cfg.Core }

// Class returns the memory-controller queue class.
func (e *Engine) Class() txn.Class { return e.cfg.Class }

// ID returns the engine's system-wide index.
func (e *Engine) ID() int { return e.id }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetPriority sets the urgency stamped on future transactions. It
// implements adapt.PrioritySetter.
func (e *Engine) SetPriority(p txn.Priority) { e.priority = p }

// Priority reports the currently stamped priority.
func (e *Engine) Priority() txn.Priority { return e.priority }

// SetUrgentProbe installs the frame-progress urgency probe used by the
// frame-rate-based QoS baseline. The probe is called with the injection
// cycle and must answer from time-correct state (see Engine.urgent).
func (e *Engine) SetUrgentProbe(fn func(now sim.Cycle) bool) { e.urgent = fn }

// OnComplete registers a completion observer (meter, source bookkeeping).
func (e *Engine) OnComplete(fn CompletionFunc) {
	e.onComplete = append(e.onComplete, fn)
}

// BindWake implements sim.WakeBinder: the kernel hands the engine its
// wake handle at registration.
func (e *Engine) BindWake(h sim.WakeHandle) { e.kern = h }

// BindSourceWake installs the wake handle of the traffic source feeding
// this engine (the SoC assembly wires it). The engine re-arms it when the
// pending queue pops from full and — when onDeliver is set, for sources
// whose activity hint reads completion-mutated state — on every
// completion delivery; those are the two events that can move a source's
// next activity earlier.
func (e *Engine) BindSourceWake(h sim.WakeHandle, onDeliver bool) {
	e.srcWake = h
	e.srcWakeOnDeliver = onDeliver
}

// rearm records an injection-wake re-arm: the cached cycle, the wake
// trace, and the engine's kernel wake-heap entry. Both callers must reach
// the kernel under the active-ticker list: a port credit return lands
// after the engine's tick and re-arms the NEXT cycle, and a delivery
// fires before this cycle's ticks on an engine that may be dormant — in
// either case the kernel entry is what gets the engine ticked at all.
func (e *Engine) rearm(at sim.Cycle, cause byte) {
	if e.trace.Wake != nil {
		e.trace.Wake(e.id, at, cause)
	}
	if at >= e.wakeAt {
		// Already armed at or before at — and the kernel already knows:
		// after a body run wakeAt is never, and the only way it is armed
		// between body runs is a prior kernel-pushed re-arm.
		return
	}
	e.wakeAt = at
	e.kern.Rearm(at)
}

// Wake implements noc.Waker: the credit return of the engine's injection
// port (a pop freeing a slot in the full FIFO, usable from the next cycle
// because the router ticks after the engine). Credits that cannot lead to
// an injection — nothing pending, or the window exhausted — are dropped:
// the enqueue or delivery that clears the other blocker re-arms then.
//
//sara:hotpath
func (e *Engine) Wake(at sim.Cycle) {
	if len(e.pending) == 0 || e.outstanding >= e.cfg.Window {
		return
	}
	e.rearm(at, 'C')
}

// Enqueue adds a request to the pending queue. It reports false when the
// queue is full, letting rate-based sources retry without losing the
// tokens. The cached injection wake needs no re-arm — the engine's Tick
// gate reads the live queue state, so once the engine IS ticked this
// cycle the request is injected (or the stall latched) regardless of
// wakeAt. What the active-ticker list does need is the kernel entry: the
// source enqueues during its own tick, the engine walks later in the
// same cycle, and without a due kernel bound it would not be ticked at
// all. The re-arm is gated on !stalled — a stalled engine's blockers
// (full window, full port) are untouched by an enqueue, its stall
// accounting is settled lazily, and the clearing event re-arms the
// kernel itself — so the saturated hot path stays one flag test.
func (e *Engine) Enqueue(kind txn.Kind, addr txn.Addr, size uint32) bool {
	if len(e.pending) >= e.cfg.MaxPending {
		return false
	}
	e.pending = append(e.pending, request{kind: kind, addr: addr, size: size})
	e.stats.Generated++
	if !e.stalled {
		// First pending work on an un-blocked engine: make it due now.
		// (Repeat enqueues this cycle hit the heap's O(1) early drop.)
		e.kern.Rearm(0)
	}
	return true
}

// PendingSpace reports how many more requests Enqueue will accept.
//
//sara:hotpath
func (e *Engine) PendingSpace() int { return e.cfg.MaxPending - len(e.pending) }

// Pending reports the generated-but-not-injected request count.
func (e *Engine) Pending() int { return len(e.pending) }

// Outstanding reports the injected-but-incomplete transaction count.
func (e *Engine) Outstanding() int { return e.outstanding }

// NextActivity implements sim.Idler as an O(1) read of the cached
// injection wake. The cache is a sound lower bound by construction: the
// injection loop parks it at never only when blocked on events that each
// re-arm it (see wakeAt), so a dormant engine never needs to be polled.
//
//sara:hotpath
func (e *Engine) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if e.wakeAt == never {
		return 0, false
	}
	if e.wakeAt <= now {
		return now, true
	}
	return e.wakeAt, true
}

// Tick injects pending requests into the NoC port while the outstanding
// window and port space allow. Strictly before the cached injection wake
// it only settles stall accounting in O(1): the blockers provably cannot
// have changed, because every event that clears one re-arms the wake onto
// its own cycle.
//
//sara:hotpath
func (e *Engine) Tick(now sim.Cycle) {
	if (len(e.pending) == 0 || e.stalled) && now < e.wakeAt && !e.kern.Reference() {
		// Idle, or dormant while blocked. The live pending check is the
		// enqueue edge: fresh requests on an un-stalled engine can only
		// appear on this very cycle (the source ticked just before), so
		// they route to the injection loop without any re-arm; once the
		// loop has latched a blocker, only the re-arming edges clear it.
		if e.stalled {
			// This cycle stalls too, plus any kernel-skipped stretch
			// since the last settled tick.
			if now > e.lastTick+1 {
				e.stats.InjectStalls += uint64(now - e.lastTick - 1)
			}
			e.stats.InjectStalls++
			e.lastTick = now
		}
		return
	}
	e.wakeAt = never
	if len(e.pending) == 0 && !e.stalled {
		return // nothing to inject, no stall accounting to carry
	}
	if e.stalled && now > e.lastTick+1 {
		// Skipped cycles between the last stalled tick and now: nothing
		// that could unblock the engine moved, so each of them stalled
		// as well.
		e.stats.InjectStalls += uint64(now - e.lastTick - 1)
	}
	e.lastTick = now
	wasPendingFull := len(e.pending) == e.cfg.MaxPending
	stalled := false
	for len(e.pending) > 0 && e.outstanding < e.cfg.Window {
		if !e.port.CanAccept() {
			// Parking port-blocked: arm the lazy credit so the next
			// full-FIFO pop re-arms the injection wake.
			e.port.ArmCredit()
			stalled = true
			break
		}
		r := e.pending[0]
		copy(e.pending, e.pending[1:])
		e.pending = e.pending[:len(e.pending)-1]

		*e.nextID++
		var t *txn.Transaction
		if e.cfg.Pool != nil {
			//sara:alloc-ok inlined copy of Pool.Get's pool warm-up allocation; steady state recycles
			t = e.cfg.Pool.Get()
		} else {
			t = new(txn.Transaction) //sara:alloc-ok pool-less fallback path; pooled configs never take it
		}
		*t = txn.Transaction{
			ID:       *e.nextID,
			Kind:     r.kind,
			Addr:     r.addr,
			Size:     r.size,
			Priority: e.priority,
			Source:   e.id,
			Class:    e.cfg.Class,
			Issue:    now,
		}
		if e.urgent != nil {
			t.Urgent = e.urgent(now)
		}
		if e.trace.Inject != nil {
			e.trace.Inject(now, e.id, t.ID, uint64(t.Addr))
		}
		e.port.Push(t, now, now+e.hop)
		e.outstanding++
		e.stats.Injected++
	}
	if !stalled && len(e.pending) > 0 && e.outstanding >= e.cfg.Window {
		stalled = true
	}
	if stalled {
		e.stats.InjectStalls++
	}
	e.stalled = stalled
	if wasPendingFull && len(e.pending) < e.cfg.MaxPending {
		// The pending queue popped from full: the source, which ticked
		// before this engine saw the queue full, can generate again from
		// the next cycle on.
		e.srcWake.Rearm(now + 1)
	}
}

// Deliver hands a completed transaction back to the DMA at cycle now.
// The freed window slot re-arms the injection wake (the delivery event
// fires before this cycle's ticks, so the engine can inject this cycle),
// and the source wake is re-armed alongside: completions change the
// in-flight accounting some sources' activity hints depend on.
//
//sara:hotpath
func (e *Engine) Deliver(t *txn.Transaction, now sim.Cycle) {
	if t.Source != e.id {
		panic(fmt.Sprintf("dma %s: delivery of foreign txn %d", e.cfg.Name, t.ID))
	}
	t.Complete = now
	e.outstanding--
	if e.outstanding < 0 {
		panic(fmt.Sprintf("dma %s: negative outstanding count", e.cfg.Name))
	}
	e.stats.Completed++
	e.stats.BytesCompleted += uint64(t.Size)
	e.stats.TotalLatency += uint64(t.Latency())
	for _, fn := range e.onComplete {
		fn(t, now)
	}
	if len(e.pending) > 0 {
		e.rearm(now, 'D')
	}
	if e.srcWakeOnDeliver {
		e.srcWake.Rearm(now)
	}
	// The transaction has fully left the system: observers consume it
	// synchronously and nothing downstream retains it.
	if e.cfg.Pool != nil {
		e.cfg.Pool.Put(t)
	}
}

// SettleRun implements sim.Settler: when the run horizon cuts a dormant
// stalled stretch short, flush the batched InjectStalls accounting up to
// the last simulated cycle (end-1), exactly as a dormant tick there would
// have. No-op when the engine is not stalled, or when the final cycle was
// ticked normally (stepped and force-poll modes, or an active engine).
func (e *Engine) SettleRun(end sim.Cycle) {
	if !e.stalled || end == 0 || e.lastTick >= end-1 {
		return
	}
	now := end - 1
	if now > e.lastTick+1 {
		e.stats.InjectStalls += uint64(now - e.lastTick - 1)
	}
	e.stats.InjectStalls++
	e.lastTick = now
}

// AverageLatency reports mean end-to-end latency in cycles, or 0.
func (e *Engine) AverageLatency() float64 {
	if e.stats.Completed == 0 {
		return 0
	}
	return float64(e.stats.TotalLatency) / float64(e.stats.Completed)
}
