// Package dma implements the DMA engines that sit between a core's
// traffic source and the on-chip network. Each DMA keeps a bounded queue
// of generated requests, injects them into its NoC port subject to an
// outstanding-transaction window, stamps every transaction with the
// priority its adapter most recently chose (Section 3.2), and routes
// completion notifications back to the source and the performance meter.
//
// An engine is not a kernel ticker of its own: it ticks inside its DMA
// unit (core.Unit), right after the traffic source that feeds it, and the
// unit's wake is the earlier of the source's and the engine's answers. So
// a source's enqueue needs no wake edge, and the engine re-arms the
// unit's wake handle (BindWake) only for the two events that come from
// outside the unit: a completion delivery (Deliver), which can free a
// window slot and moves the source's completion-read state, and a credit
// return from the NoC port it injects into (Wake, wired through
// noc.Port.OnCredit). NextActivity answers from the live queue, window
// and port. A dormant engine is not ticked at all: its stall accounting
// is batched, settled on its next tick and, by SettleRun, at the run
// horizon.
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

// WakeFn observes one injection-wake re-arm: which engine re-armed to
// at, and why — 'D' for a completion delivery, 'C' for a port credit
// return the engine can use. The re-arm stream is a function of the
// simulated behavior alone, so it must be bit-identical between the
// idle-skipping run and the stepped reference — a stale or missing wake
// diverges this trace instead of silently stalling a core.
type WakeFn = func(source int, at sim.Cycle, cause byte)

// Trace is one engine's set of trace probes; nil fields are disabled.
type Trace struct {
	Inject InjectFn
	Wake   WakeFn
}

// SetTrace installs the engine's trace probes, replacing the previous
// set. Install probes only while the engine is not running.
func (e *Engine) SetTrace(t Trace) { e.trace = t }

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
	// Pool recycles completed transactions so the steady-state
	// inject/complete path allocates nothing. All engines of one system
	// share a pool (the simulator is single-threaded); nil gives the
	// engine a private one.
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
	// means never urgent. It receives the injection cycle.
	urgent func(now sim.Cycle) bool

	pending     []request
	outstanding int
	nextID      *uint64

	// lastTick and stalled batch the InjectStalls accounting across
	// cycles the kernel did not tick the engine: a stalled engine's
	// blockers (full window, full port) cannot change without one of the
	// re-arming events, each of which forces the loop to run on its
	// cycle, so every loop-free cycle in between stalled as well and is
	// counted in one step.
	lastTick sim.Cycle
	stalled  bool

	onComplete []CompletionFunc
	stats      Stats

	// kern is the owning unit's kernel wake handle (see BindWake).
	kern sim.WakeHandle

	// trace holds the engine's trace probes (see SetTrace).
	trace Trace
}

// New builds a DMA engine. id must be unique per system; nextID is the
// system-wide transaction ID counter; port is the engine's NoC input port
// and hop its injection link latency. The engine registers itself as the
// port's credit sink: a pop of the full port wakes it (see Wake).
func New(cfg Config, id int, nextID *uint64, port *noc.Port, hop sim.Cycle) *Engine {
	if cfg.Window <= 0 {
		panic(fmt.Sprintf("dma %s: window must be positive", cfg.Name))
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 2 * cfg.Window
	}
	if cfg.Pool == nil {
		cfg.Pool = new(txn.Pool)
	}
	e := &Engine{cfg: cfg, id: id, nextID: nextID, port: port, hop: hop}
	port.OnCredit(e)
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

// BindWake receives the kernel wake handle of the unit the engine ticks
// in; the engine re-arms it on a delivery and on a usable credit.
func (e *Engine) BindWake(h sim.WakeHandle) { e.kern = h }

// rearm records an injection-wake re-arm in the wake trace and the
// unit's kernel wake. Both callers must reach the kernel under the
// active-ticker list: a port credit return lands after the unit's tick
// and re-arms the NEXT cycle, and a delivery fires before this cycle's
// ticks on a unit that may be dormant — in either case the kernel entry
// is what gets the unit ticked at all. The wake wheel drops a re-arm at
// or above the cached wake in O(1).
func (e *Engine) rearm(at sim.Cycle, cause byte) {
	if e.trace.Wake != nil {
		e.trace.Wake(e.id, at, cause)
	}
	e.kern.Rearm(at)
}

// Wake implements noc.Waker: the credit return of the engine's injection
// port (a pop freeing a slot in the full FIFO, usable from the next cycle
// because the router ticks after the engine). Credits that cannot lead to
// an injection — nothing pending, or the window exhausted — are dropped:
// the unit's tick (an enqueue) or the delivery that clears the other
// blocker makes the unit due then. The engine ticks before the routers in
// a cycle, so a credit passes the filter exactly when the engine last
// parked on the full port.
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
// tokens. It needs no wake: the source enqueues during its unit's tick,
// and the engine ticks right after it.
func (e *Engine) Enqueue(kind txn.Kind, addr txn.Addr, size uint32) bool {
	if len(e.pending) >= e.cfg.MaxPending {
		return false
	}
	e.pending = append(e.pending, request{kind: kind, addr: addr, size: size})
	e.stats.Generated++
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

// NextActivity implements sim.Idler from live state: the engine acts now
// if a request is pending, the window has room and the port can accept.
// Otherwise it reports no activity, because each blocker is cleared only
// by an event that re-arms the unit's kernel wake (an enqueue in the
// unit's tick, a delivery, a port credit).
//
//sara:hotpath
func (e *Engine) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if len(e.pending) > 0 && e.outstanding < e.cfg.Window && e.port.CanAccept() {
		return now, true
	}
	return 0, false
}

// Tick injects pending requests into the NoC port while the outstanding
// window and port space allow.
//
//sara:hotpath
func (e *Engine) Tick(now sim.Cycle) {
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
	stalled := false
	for len(e.pending) > 0 && e.outstanding < e.cfg.Window {
		if !e.port.CanAccept() {
			// Parking port-blocked: the next full-FIFO pop wakes it.
			stalled = true
			break
		}
		r := e.pending[0]
		copy(e.pending, e.pending[1:])
		e.pending = e.pending[:len(e.pending)-1]

		*e.nextID++
		//sara:alloc-ok inlined copy of Pool.Get's pool warm-up allocation; steady state recycles
		t := e.cfg.Pool.Get()
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
}

// Deliver hands a completed transaction back to the DMA at cycle now and
// re-arms the unit at now: the delivery event fires before this cycle's
// ticks, so the engine can use the freed window slot this cycle, and the
// source sees the completion-mutated state (in-flight bytes) it may
// answer from.
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
	e.rearm(now, 'D')
	// The transaction has fully left the system: observers consume it
	// synchronously and nothing downstream retains it.
	e.cfg.Pool.Put(t)
}

// SettleRun implements sim.Settler: when the run horizon cuts a dormant
// stalled stretch short, flush the batched InjectStalls accounting up to
// the last simulated cycle (end-1), exactly as a tick there would have.
// No-op when the engine is not stalled, or when the final cycle was
// ticked (the stepped reference, or an active engine).
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
