// Package noc models the on-chip network that carries memory transactions
// from the DMAs to the memory controllers: routers with per-input FIFO
// ports, one-packet-per-output switch allocation per cycle, credit-based
// backpressure into the downstream sink, and pluggable arbitration
// policies (FCFS, round-robin, priority-based with round-robin tiebreak,
// and the frame-rate-urgency baseline).
//
// The evaluated topology (built by internal/core) is a two-level tree
// matching Fig. 1: media cores and system cores aggregate through their
// own routers, which join the CPU, GPU and DSP at a root router with one
// output per DRAM channel. The response path is a fixed-latency pipe
// handled by the SoC layer, since the figures the paper reports are
// insensitive to return-path contention.
//
// Arbitration is fully event-driven: every router caches nextGrantAt, the
// exact earliest cycle at which a grant could occur given its head-flit
// arrival times, per-output credit state and arbiter inputs, and its Tick
// short-circuits in O(1) on every cycle before that. The cache is re-armed
// from outside by the two events that can make a grant possible earlier —
// an upstream injection into one of its ports (Port.Push) and a downstream
// credit return (a full FIFO pop, or a memory-controller queue release) —
// so a router stays dormant between grants even while the rest of the
// system keeps executing cycles.
package noc

import (
	"fmt"

	"sara/internal/sim"
	"sara/internal/txn"
)

// ArbKind selects a router's switch-allocation policy.
type ArbKind uint8

const (
	// ArbFCFS grants the input whose head packet arrived first.
	ArbFCFS ArbKind = iota
	// ArbRR grants inputs in round-robin order.
	ArbRR
	// ArbPriority grants the highest-priority head, round-robin on ties.
	ArbPriority
	// ArbFrameRate grants urgent media packets first, then FCFS.
	ArbFrameRate
)

// String returns the arbitration policy name.
func (a ArbKind) String() string {
	switch a {
	case ArbFCFS:
		return "fcfs"
	case ArbRR:
		return "rr"
	case ArbPriority:
		return "priority"
	case ArbFrameRate:
		return "framerate"
	}
	return fmt.Sprintf("arb(%d)", uint8(a))
}

// Params are the network-wide knobs.
type Params struct {
	// PortDepth is the FIFO depth of each router input port.
	PortDepth int
	// HopLatency is the cycles a packet spends traversing one link
	// before it becomes eligible for arbitration at the next router.
	HopLatency sim.Cycle
	// RespLatency is the fixed return-path delay from memory controller
	// back to the DMA.
	RespLatency sim.Cycle
	// Arb is the switch-allocation policy of every router.
	Arb ArbKind
	// AgingT serves any packet that has waited at least this long at one
	// router ahead of policy order, preventing starvation under priority
	// arbitration. Zero disables aging.
	AgingT sim.Cycle
}

// DefaultParams returns the evaluation settings: 16-deep ports, 2-cycle
// hops, 12-cycle response path, aging at the paper's T. The port depth
// matters for the baselines: deep FIFOs let a flooding engine accumulate
// old packets that dominate FCFS (oldest-first) arbitration, which is how
// high-bandwidth cores overwhelm others on a shared interconnect.
func DefaultParams() Params {
	return Params{PortDepth: 16, HopLatency: 2, RespLatency: 12, Arb: ArbPriority, AgingT: 10000}
}

// CrossDomainLatency is the minimum latency of a request crossing a
// router-to-router link plus its injection stage: the link hop plus the
// one-cycle store-and-forward step of the receiving port. It is the
// conservative lookahead of the domain-parallel kernel (core.BuildParallel):
// a packet granted at cycle t cannot influence another domain before
// t + CrossDomainLatency, so domains may run that many cycles ahead of
// each other between barriers. Derived from the config, never hardcoded —
// fuzzed hop latencies change the epoch length with it.
func (p Params) CrossDomainLatency() sim.Cycle { return p.HopLatency + 1 }

// Waker is the wake-propagation half of the event-driven arbitration
// contract: a component that caches its next-grant cycle implements Waker
// so the events that could make a grant possible earlier — an upstream
// injection landing mid-sleep, a downstream credit return — can re-arm the
// cached wake. Under the kernel's push-based wake heap the receiver must
// forward the re-arm to its sim.WakeHandle as well (the kernel no longer
// polls hints per executed cycle); the Router does so in Wake. Re-arming
// earlier than necessary is always safe (the component scans, finds
// nothing, and recomputes); failing to re-arm breaks simulation
// equivalence.
type Waker interface {
	// Wake re-arms the receiver to re-evaluate no later than cycle at.
	Wake(at sim.Cycle)
}

// packet is a transaction in flight through one router.
type packet struct {
	t       *txn.Transaction
	readyAt sim.Cycle // when it finishes the incoming link
	arrived sim.Cycle // when it entered this router's port (for FCFS/aging)
	// out caches the routed output index (-1 until first computed);
	// routing is per-transaction math the arbitration loops would
	// otherwise redo every cycle the packet waits at the head.
	out int16
}

// Port is a router input FIFO.
type Port struct {
	fifo  []packet
	depth int
	// owner, when the port is wired into a router, receives queue
	// bookkeeping and a wake re-arm on every push, and idx is the port's
	// index at that router (for the credit trace).
	owner *Router
	idx   int
	// creditTo is the feeder to wake when a pop frees space in a full
	// FIFO (the credit return): the upstream router of a router-to-router
	// link (eager — woken on every full pop), or the DMA engine injecting
	// into the port (lazy — woken only while creditArmed, which the
	// engine sets when it parks port-blocked, so the common full pop with
	// an unblocked feeder costs one flag test instead of a wake).
	creditTo    Waker
	creditLazy  bool
	creditArmed bool
	// onPop, when set, observes every pop (not just full ones) with the
	// pop cycle. The domain-parallel kernel uses it on cross-domain
	// ingress ports to count credits owed to the sending domain; credits
	// travel back through the barrier exchange instead of a Waker because
	// the sender lives on another goroutine.
	onPop func(now sim.Cycle)
}

// NewPort returns a port with the given FIFO depth.
func NewPort(depth int) *Port {
	if depth <= 0 {
		panic("noc: port depth must be positive")
	}
	return &Port{depth: depth}
}

// CanAccept reports whether the FIFO has space.
//
//sara:hotpath
func (p *Port) CanAccept() bool { return len(p.fifo) < p.depth }

// Push appends t, becoming arbitrable at readyAt. When the port belongs to
// a router, the push re-arms the router's wake: an injection landing while
// the router sleeps must be able to pull the next scan forward.
//
//sara:hotpath
func (p *Port) Push(t *txn.Transaction, arrived, readyAt sim.Cycle) {
	if !p.CanAccept() {
		panic("noc: push to full port")
	}
	p.fifo = append(p.fifo, packet{t: t, readyAt: readyAt, arrived: arrived, out: -1}) //sara:alloc-ok fifo backing array amortizes to the port's credit depth
	if o := p.owner; o != nil {
		o.queued++
		if readyAt < o.nextGrantAt {
			// The push lowers the dormancy window, so the kernel must
			// hear about it here and now: under the active-ticker list a
			// dormant router is not ticked at all, so there is no tick-top
			// sync to pick the push up later. When the window is already
			// at or below readyAt the kernel's cached bound covers it too
			// (every lowering of either goes through Push or Wake), and
			// the re-arm is skipped to keep Push cheap on the hot path.
			o.nextGrantAt = readyAt
			o.wake.Rearm(readyAt)
		}
	}
}

// Len reports the queued packet count.
func (p *Port) Len() int { return len(p.fifo) }

// Depth reports the FIFO capacity; Len/Depth is the port's occupancy.
func (p *Port) Depth() int { return p.depth }

// pop removes the head packet at cycle now. Popping a full FIFO returns a
// credit to the upstream router, which can use the freed slot from the
// next cycle on.
func (p *Port) pop(now sim.Cycle) packet {
	wasFull := len(p.fifo) == p.depth
	pk := p.fifo[0]
	copy(p.fifo, p.fifo[1:])
	p.fifo[len(p.fifo)-1] = packet{}
	p.fifo = p.fifo[:len(p.fifo)-1]
	if p.owner != nil {
		p.owner.queued--
		if fn := p.owner.trace.Credit; fn != nil {
			fn(p.owner.name, now, p.idx, wasFull)
		}
	}
	if wasFull && p.creditTo != nil && (!p.creditLazy || p.creditArmed) {
		p.creditArmed = false
		p.creditTo.Wake(now + 1)
	}
	if p.onPop != nil {
		p.onPop(now)
	}
	return pk
}

// Sink is the downstream consumer of a router output: either the next
// router's input port or a memory-controller queue.
type Sink interface {
	// CanAccept reports whether the sink can take t this cycle.
	CanAccept(t *txn.Transaction) bool
	// Accept consumes t at cycle now.
	Accept(t *txn.Transaction, now sim.Cycle)
}

// CreditSink is a Sink that returns credits: it notifies the upstream
// waker when it transitions from full back to having space, so a router
// blocked on it can sleep until the credit instead of polling CanAccept
// every cycle. Sinks that do not implement CreditSink are polled — a
// router with a ready head blocked on a plain Sink re-scans each cycle.
type CreditSink interface {
	Sink
	// OnCredit registers the upstream waker to notify on credit returns.
	OnCredit(w Waker)
}

// PortSink adapts a router input port into a Sink for the upstream router,
// applying the link's hop latency.
type PortSink struct {
	Port *Port
	Hop  sim.Cycle
}

// CanAccept reports whether the port FIFO has space.
func (s PortSink) CanAccept(*txn.Transaction) bool { return s.Port.CanAccept() }

// Accept pushes t into the port; it becomes arbitrable after the hop.
func (s PortSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.Port.Push(t, now, now+s.Hop)
}

// OnCredit registers w to be woken when a pop frees a slot in the full
// FIFO — the credit return of whatever feeds this port: the upstream
// router of a router-to-router link, or the DMA engine injecting into it.
// A port has exactly one feeder; wiring a second would silently steal the
// first one's credit wakes, so it panics instead.
func (p *Port) OnCredit(w Waker) {
	if p.creditTo != nil {
		panic("noc: port already credit-wired")
	}
	p.creditTo = w
}

// OnCreditArmed wires w like OnCredit but lazily: pops wake w only after
// an ArmCredit call, and consume the arming. The DMA engines use it so
// pops of a full port whose feeder is not actually blocked on it (idle,
// or window-limited) cost a flag test instead of a wake.
func (p *Port) OnCreditArmed(w Waker) {
	p.OnCredit(w)
	p.creditLazy = true
}

// ArmCredit requests a wake from the next credit-returning pop. The
// feeder calls it when it blocks on the full FIFO.
//
//sara:hotpath
func (p *Port) ArmCredit() { p.creditArmed = true }

// OnPop registers a per-pop observer (every pop, not only full ones).
// A port has exactly one observer; wiring a second would silently drop
// the first one's credit accounting, so it panics instead.
func (p *Port) OnPop(fn func(now sim.Cycle)) {
	if p.onPop != nil {
		panic("noc: port already pop-wired")
	}
	p.onPop = fn
}

// OnCredit implements CreditSink: pops of the full downstream port wake w.
func (s PortSink) OnCredit(w Waker) { s.Port.OnCredit(w) }

// Router arbitrates its input ports onto one or more output sinks. Packets
// are routed to an output by the Route function (e.g. by DRAM channel at
// the root router; single-output aggregation routers ignore it).
type Router struct {
	name    string
	params  Params
	ports   []*Port
	outputs []Sink
	// Route maps a transaction to an output index.
	route func(*txn.Transaction) int
	rrPtr int

	// ready is per-cycle scratch: the arbitrable head of every port,
	// collected once per scan so the per-output selection loops do not
	// re-read FIFOs and re-route packets.
	ready []readyHead
	// queued is the live packet count across all input ports.
	queued int
	// credited marks outputs that return credits (CreditSink). A ready
	// head blocked on a credited output needs no polling — the credit
	// re-arms nextGrantAt; a head blocked on an uncredited output forces
	// a scan every cycle.
	credited []bool

	// nextGrantAt is the dormancy window: the earliest cycle at which,
	// absent any external wake, this router could grant. Each full scan
	// recomputes it exactly from head readyAt times and per-output credit
	// state; Push and credit returns re-arm it earlier. never means no
	// grant is possible without an external event. Ticks strictly before
	// nextGrantAt only settle stall accounting and skip the scan.
	nextGrantAt sim.Cycle

	// lastTick and stallFrom batch the stall accounting across cycles the
	// scan did not run (kernel-skipped or dormant). stallFrom is the first
	// cycle at which, absent any activity, a ready head exists — from then
	// on every scan-free cycle stalls, because a grantable head would have
	// re-armed nextGrantAt and forced a scan. It starts at a head's future
	// readyAt when the head is still traversing its link, which a boolean
	// "stalled last tick" flag could not express. lastScan tracks the last
	// cycle the full scan ran, for the sleep-window trace.
	lastTick  sim.Cycle
	stallFrom sim.Cycle
	lastScan  sim.Cycle

	// stats
	forwarded uint64
	stalls    uint64 // cycles an arbitrable head existed but no grant fit

	// trace holds the router's trace probes (see SetTrace).
	trace Trace

	// wake is the router's kernel wake handle: every lowering of
	// nextGrantAt — upstream pushes (Port.Push) and credit wakes (Wake) —
	// is forwarded through it into the kernel's wake heap, so the
	// active-ticker list knows to tick the router without polling
	// NextActivity. Scan-end increases of nextGrantAt are reconciled by
	// the kernel's post-tick re-key. Under the kernel's reference mode
	// (wake.Reference) Tick ignores nextGrantAt and runs the full
	// ready-head scan every cycle.
	wake sim.WakeHandle
}

// The trace edges below are per-router probes: each Router holds one
// nil-checked function field per edge, installed through SetTrace (the
// SoC assembly does it for a whole System through core.System.Probe,
// which multiplexes several subscribers onto one field). With no
// subscriber the field is nil and the disabled path costs one load and a
// nil test (the steady-state alloc gates cover it). Install probes only
// while the router is not running; a probe runs on the goroutine that
// ticks the router, so under the domain-parallel kernel probes of one
// System may run concurrently and must synchronize shared state.

// StallFn observes a stall accrual: name's router stalled for n cycles
// ending at now. Stalls are batched across dormant stretches, so one call
// may cover many cycles (backfill reports whether the accrual was settled
// after the fact rather than observed on a live scan); batching boundaries
// depend on when settles run and are not part of the equivalence contract
// — only the per-router totals are.
type StallFn = func(name string, now sim.Cycle, n uint64, backfill bool)

// GrantFn observes one switch-allocation grant: which input port won
// which output for which transaction.
type GrantFn = func(name string, now sim.Cycle, port, out int, id uint64)

// CreditFn observes a credit-side pop of a router input port: which port
// freed a slot and whether the FIFO was full (i.e. the pop actually
// returned a credit upstream). Controller-side queue releases are
// reported on the same edge through Router.TraceCredit by the SoC wiring,
// under their own names.
type CreditFn = func(name string, now sim.Cycle, port int, wasFull bool)

// SleepFn observes a sleep window: when a scan runs at cycle b after the
// previous scan at a-1, the router asserts no grant occurred in [a, b).
type SleepFn = func(name string, from, until sim.Cycle)

// Trace is one router's set of trace probes; nil fields are disabled.
type Trace struct {
	Stall  StallFn
	Grant  GrantFn
	Credit CreditFn
	Sleep  SleepFn
}

// SetTrace installs the router's trace probes, replacing the previous set.
func (r *Router) SetTrace(t Trace) { r.trace = t }

// TraceCredit reports a credit return to the router's credit probe. It
// exists for credit sources outside this package: the memory-controller
// queue releases the SoC assembly reports through the router that feeds
// the controller.
func (r *Router) TraceCredit(name string, now sim.Cycle, port int, wasFull bool) {
	if r.trace.Credit != nil {
		r.trace.Credit(name, now, port, wasFull)
	}
}

// FlushSleep reports the router's trailing sleep window — the scan-free
// stretch between its last scan and now — to the sleep-window probe.
// Windows are otherwise only emitted when a later scan runs, so an
// observer ending its run mid-sleep calls this to close the final window.
func (r *Router) FlushSleep(now sim.Cycle) {
	if r.trace.Sleep != nil && now > r.lastScan+1 {
		r.trace.Sleep(r.name, r.lastScan+1, now)
	}
}

// never marks an unarmed wake: a router with no packets accrues no stalls
// (stallFrom) and a router whose every head is blocked on a credited sink
// cannot grant without an external event (nextGrantAt).
const never = ^sim.Cycle(0)

// readyHead is one port's arbitrable head packet with its routed output.
type readyHead struct {
	idx int
	out int
	pk  packet
}

// NewRouter builds a router with nports input ports. route may be nil when
// there is exactly one output. Outputs implementing CreditSink are wired
// to wake the router on credit returns.
func NewRouter(name string, params Params, nports int, outputs []Sink, route func(*txn.Transaction) int) *Router {
	if nports <= 0 || len(outputs) == 0 {
		panic("noc: router needs ports and outputs")
	}
	if route == nil {
		if len(outputs) != 1 {
			panic("noc: nil route with multiple outputs")
		}
		route = func(*txn.Transaction) int { return 0 }
	}
	r := &Router{name: name, params: params, outputs: outputs, route: route,
		stallFrom: never, nextGrantAt: never}
	r.ports = make([]*Port, nports)
	for i := range r.ports {
		r.ports[i] = NewPort(params.PortDepth)
		r.ports[i].owner = r
		r.ports[i].idx = i
	}
	r.credited = make([]bool, len(outputs))
	for i, out := range outputs {
		if cs, ok := out.(CreditSink); ok {
			cs.OnCredit(r)
			r.credited[i] = true
		}
	}
	return r
}

// Name returns the router's label.
func (r *Router) Name() string { return r.name }

// Port returns input port i, for wiring upstream producers.
func (r *Router) Port(i int) *Port { return r.ports[i] }

// NPorts reports the number of input ports.
func (r *Router) NPorts() int { return len(r.ports) }

// Forwarded reports the number of packets granted so far.
func (r *Router) Forwarded() uint64 { return r.forwarded }

// Stalls reports cycles where a ready head existed but nothing was granted.
func (r *Router) Stalls() uint64 { return r.stalls }

// BindWake implements sim.WakeBinder: the kernel hands the router its
// wake handle at registration, so Wake can push external re-arms into
// the kernel's wake heap.
func (r *Router) BindWake(h sim.WakeHandle) { r.wake = h }

// Wake implements Waker: re-arm the router to scan no later than cycle at.
// Earlier than necessary is safe — the scan finds nothing grantable and
// recomputes the window. Pushes wake at the packet's readyAt; credit
// returns wake at the cycle after the pop or queue release. The re-arm is
// forwarded to the kernel's wake heap, which is what lets the kernel skip
// to this router's next grant without polling it.
//
//sara:hotpath
func (r *Router) Wake(at sim.Cycle) {
	if r.queued == 0 {
		// A credit return to an empty router is moot: there is nothing to
		// grant into the freed slot. Adopting it anyway would lower
		// nextGrantAt below `never` with no scan left to recompute it (the
		// empty tick returns early), and once that cycle passes the stale
		// low window makes the next Push skip its kernel re-arm — the
		// router would sleep through the pushed packet's readyAt.
		return
	}
	if at < r.nextGrantAt {
		r.nextGrantAt = at
	}
	// The re-arm must reach the kernel directly: credit wakes land after
	// this router's tick in their cycle, and under the active-ticker list
	// a dormant router is not ticked again until its kernel bound says so.
	// (Rearm drops values the kernel's cached bound already covers.)
	r.wake.Rearm(at)
}

// NextActivity implements sim.Idler from the cached dormancy window: an
// empty router never acts, and a router whose window is unarmed (every
// head blocked on a credited sink) acts only after an external wake, which
// lands on an executed cycle and is observed by the kernel's re-query. The
// O(ports) work lives in the scan that computed the window, not here.
//
//sara:hotpath
func (r *Router) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if r.queued == 0 || r.nextGrantAt == never {
		return 0, false
	}
	if r.nextGrantAt <= now {
		return now, true
	}
	return r.nextGrantAt, true
}

// SettleRun implements sim.Settler: flush the batched stall accounting at
// the end of a Run segment by mimicking a dormant tick at end-1 (the last
// simulated cycle). Under the active-ticker list a router that stays
// dormant to the horizon is never ticked again, so without this its
// backfilled stalls for the trailing stretch would be lost. Idempotent,
// and a no-op in the stepped and force-poll modes, where the tick at
// end-1 already ran this exact accounting.
func (r *Router) SettleRun(end sim.Cycle) {
	if r.queued == 0 || end == 0 || r.lastTick >= end-1 {
		return
	}
	now := end - 1
	r.accrueStallGap(now)
	if r.stallFrom <= now {
		r.stalls++
		if r.trace.Stall != nil {
			r.trace.Stall(r.name, now, 1, false)
		}
	}
	r.lastTick = now
}

// accrueStallGap back-fills stall cycles for the scan-free stretch
// (lastTick, now): every cycle from stallFrom on had a ready head and no
// grant (the dormancy window proves no grant was possible).
func (r *Router) accrueStallGap(now sim.Cycle) {
	if now > r.lastTick+1 && r.stallFrom < now {
		from := r.stallFrom
		if from <= r.lastTick {
			from = r.lastTick + 1
		}
		r.stalls += uint64(now - from)
		if r.trace.Stall != nil {
			r.trace.Stall(r.name, now, uint64(now-from), true)
		}
	}
}

// Tick performs one cycle of switch allocation: at most one grant per
// output. Strictly before the dormancy window opens it only settles stall
// accounting in O(1); at or after the window it runs the full scan: the
// arbitrable heads are collected (and routed) once; after a grant, the
// popped port's next head joins the pool for the remaining outputs,
// matching the per-output re-read of a straightforward nested scan.
//
//sara:hotpath
func (r *Router) Tick(now sim.Cycle) {
	if r.queued == 0 {
		return // stallFrom is never: the scan that popped the last packet reset it
	}
	// No kernel sync is needed here: every lowering of nextGrantAt
	// (Port.Push, Wake) re-arms the kernel bound at its source, and the
	// scan-end recompute below only raises the window relative to the
	// post-tick re-key the active list performs.
	if now < r.nextGrantAt && !r.wake.Reference() {
		// Dormant: the window proves no grant can occur this cycle, so
		// the only per-cycle work is the stall accounting the reference
		// scan would have done.
		r.accrueStallGap(now)
		if r.stallFrom <= now {
			r.stalls++
			if r.trace.Stall != nil {
				r.trace.Stall(r.name, now, 1, false)
			}
		}
		r.lastTick = now
		return
	}
	if r.trace.Sleep != nil && now > r.lastScan+1 {
		r.trace.Sleep(r.name, r.lastScan+1, now)
	}
	r.accrueStallGap(now)
	r.lastTick = now
	r.lastScan = now
	r.ready = r.ready[:0]
	oldest := now
	for i, p := range r.ports {
		if len(p.fifo) == 0 {
			continue // zero buffered flits: nothing to collect or route
		}
		if pk := p.fifo[0]; pk.readyAt <= now {
			r.ready = append(r.ready, readyHead{idx: i, out: r.headOut(p), pk: pk}) //sara:alloc-ok ready list is reused each tick; capacity amortizes to port count
			if pk.arrived < oldest {
				oldest = pk.arrived
			}
		}
	}
	// The aging pass only matters once some ready head is over-age.
	aging := r.params.AgingT > 0 && now >= oldest+r.params.AgingT
	granted := false
	for out := range r.outputs {
		sel := r.selectReady(out, now, aging)
		if sel < 0 {
			continue
		}
		h := r.ready[sel]
		pk := r.ports[h.idx].pop(now)
		if r.trace.Grant != nil {
			r.trace.Grant(r.name, now, h.idx, out, pk.t.ID)
		}
		r.outputs[out].Accept(pk.t, now)
		r.forwarded++
		granted = true
		r.rrPtr = (h.idx + 1) % len(r.ports)
		// Refresh the granted port's cached head for later outputs.
		if p := r.ports[h.idx]; len(p.fifo) > 0 && p.fifo[0].readyAt <= now {
			r.ready[sel] = readyHead{idx: h.idx, out: r.headOut(p), pk: p.fifo[0]}
		} else {
			r.ready = append(r.ready[:sel], r.ready[sel+1:]...) //sara:alloc-ok in-place removal; never grows the backing array
		}
	}
	if !granted && len(r.ready) > 0 {
		// Some head was ready but nothing fit downstream.
		r.stalls++
		if r.trace.Stall != nil {
			r.trace.Stall(r.name, now, 1, false)
		}
	}
	// Recompute the dormancy window and the stall origin from the
	// post-grant state. A head still traversing its link opens the window
	// at its readyAt; a ready head that survived ungranted opens it at
	// now+1 if its output can accept (it may win next cycle) or is not
	// credit-wired (it must be polled); a ready head blocked on a
	// credited output contributes nothing — the credit return re-arms the
	// window. stallFrom is the first cycle any head is arbitrable: every
	// scan-free cycle from then on stalls.
	r.stallFrom = never
	next := never
	for _, p := range r.ports {
		if len(p.fifo) == 0 {
			continue
		}
		pk := &p.fifo[0]
		at := pk.readyAt
		if at <= now {
			at = now + 1
			if out := r.headOut(p); !r.credited[out] || r.outputs[out].CanAccept(pk.t) {
				next = at
			}
		} else if at < next {
			next = at
		}
		if at < r.stallFrom {
			r.stallFrom = at
		}
	}
	r.nextGrantAt = next
}

// headOut returns the routed output of p's head packet, computing and
// caching it on first use.
func (r *Router) headOut(p *Port) int {
	pk := &p.fifo[0]
	if pk.out < 0 {
		pk.out = int16(r.route(pk.t))
	}
	return int(pk.out)
}

// selectReady picks the index in r.ready to grant for output out, or -1.
func (r *Router) selectReady(out int, now sim.Cycle, aging bool) int {
	sel := -1
	// Aging pass: any over-age head is served oldest-first.
	if aging {
		for i, h := range r.ready {
			if h.out != out || now < h.pk.arrived+r.params.AgingT {
				continue
			}
			if !r.outputs[out].CanAccept(h.pk.t) {
				continue
			}
			if sel < 0 || fcfsBefore(h.pk, r.ready[sel].pk) {
				sel = i
			}
		}
		if sel >= 0 {
			return sel
		}
	}
	for i, h := range r.ready {
		if h.out != out || !r.outputs[out].CanAccept(h.pk.t) {
			continue
		}
		if sel < 0 || r.better(h.pk, h.idx, r.ready[sel].pk, r.ready[sel].idx, now) {
			sel = i
		}
	}
	return sel
}

// better reports whether candidate (pk, idx) beats the incumbent under the
// router's arbitration policy.
func (r *Router) better(pk packet, idx int, inc packet, incIdx int, now sim.Cycle) bool {
	switch r.params.Arb {
	case ArbFCFS:
		return fcfsBefore(pk, inc)
	case ArbRR:
		return r.rrDist(idx) < r.rrDist(incIdx)
	case ArbPriority:
		if pk.t.Priority != inc.t.Priority {
			return pk.t.Priority > inc.t.Priority
		}
		return r.rrDist(idx) < r.rrDist(incIdx)
	case ArbFrameRate:
		if pk.t.Urgent != inc.t.Urgent {
			return pk.t.Urgent
		}
		return fcfsBefore(pk, inc)
	default:
		panic("noc: unknown arbitration policy")
	}
}

func fcfsBefore(a, b packet) bool {
	if a.arrived != b.arrived {
		return a.arrived < b.arrived
	}
	return a.t.ID < b.t.ID
}

func (r *Router) rrDist(idx int) int {
	return (idx - r.rrPtr + len(r.ports)) % len(r.ports)
}
