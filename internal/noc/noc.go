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
// arrival times, per-output credit state and arbiter inputs, and reports
// it as its next activity, so the kernel does not tick it before then.
// The cache is re-armed from outside by the two events that can make a
// grant possible earlier — an upstream injection into one of its ports
// (Port.Push) and a downstream credit return (a full FIFO pop, or a
// memory-controller queue release) — so a router stays dormant between
// grants even while the rest of the system keeps executing cycles.
//
// A scan that does run buckets the arbitrable heads by routed output once,
// as lists of port indices, and each output's selection walks only its own
// list, reading the head packets in place from the FIFOs. A root router
// with one output per DRAM channel therefore pays for each ready head once
// per scan, not once per output. Every arbitration policy breaks its ties
// down to a total order (round-robin distance, or arrival then
// transaction ID), so the order of a list never changes a grant.
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
// cached wake. Under the kernel's push-based wake wheel the receiver must
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
// next cycle on, and counts as a backpressure release (Router.FullPops).
func (p *Port) pop(now sim.Cycle) packet {
	wasFull := len(p.fifo) == p.depth
	pk := p.fifo[0]
	copy(p.fifo, p.fifo[1:])
	p.fifo[len(p.fifo)-1] = packet{}
	p.fifo = p.fifo[:len(p.fifo)-1]
	if p.owner != nil {
		p.owner.queued--
		if wasFull {
			p.owner.fullPops++
		}
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

// Sink is the downstream consumer of a router output: the next router's
// input port, a memory-controller queue, or a cross-domain link. Every
// sink returns credits: it wakes the upstream router when it goes from
// full back to having space, so a router blocked on it sleeps until the
// credit instead of polling CanAccept every cycle.
type Sink interface {
	// CanAccept reports whether the sink can take t this cycle.
	CanAccept(t *txn.Transaction) bool
	// Accept consumes t at cycle now.
	Accept(t *txn.Transaction, now sim.Cycle)
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

// OnCredit implements Sink: pops of the full downstream port wake w.
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

	// heads is per-scan scratch: heads[o] lists the ports whose
	// arbitrable head routes to output o, so the per-output selection
	// walks only its own heads and no packet is routed twice. A port's
	// head sits in at most one list, so every list has room for all ports;
	// NewRouter carves the lists out of one backing array.
	heads [][]int32
	// queued is the live packet count across all input ports.
	queued int

	// nextGrantAt is the dormancy window: the earliest cycle at which,
	// absent any external wake, this router could grant. Each full scan
	// recomputes it exactly from head readyAt times and per-output credit
	// state; Push and credit returns re-arm it earlier. never means no
	// grant is possible without an external event. It is the router's
	// NextActivity answer; Tick itself always scans.
	nextGrantAt sim.Cycle

	// lastTick and stallFrom batch the stall accounting across cycles the
	// kernel did not tick the router. stallFrom is the first cycle at
	// which, absent any activity, a ready head exists — from then on
	// every scan-free cycle stalls, because a grantable head would have
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
	fullPops  uint64 // pops of a full input FIFO (credits returned upstream)

	// trace holds the router's trace probes (see SetTrace).
	trace Trace

	// wake is the router's kernel wake handle: every lowering of
	// nextGrantAt — upstream pushes (Port.Push) and credit wakes (Wake) —
	// is forwarded through it into the kernel's wake wheel, so the
	// active-ticker list knows to tick the router without polling
	// NextActivity. Scan-end increases of nextGrantAt are reconciled by
	// the kernel's post-tick re-key.
	wake sim.WakeHandle
}

// The trace edges below are per-router probes: each Router holds one
// nil-checked function field per edge, installed through SetTrace (the
// SoC assembly does it for a whole System through core.System.Probe).
// With no subscriber the field is nil and the disabled path costs one
// load and a nil test (the steady-state alloc gates cover it). Install
// probes only while the router is not running; a probe runs on the
// goroutine that ticks the router, so under the domain-parallel kernel
// probes of one System may run concurrently and must synchronize shared
// state.

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
// (stallFrom) and a router whose every head is blocked on a full sink
// cannot grant without an external event (nextGrantAt).
const never = ^sim.Cycle(0)

// NewRouter builds a router with nports input ports. route may be nil when
// there is exactly one output. Every output is wired to wake the router
// on credit returns.
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
	slab := make([]int32, len(outputs)*nports)
	r.heads = make([][]int32, len(outputs))
	for o := range r.heads {
		r.heads[o] = slab[o*nports : o*nports : (o+1)*nports]
	}
	for _, out := range outputs {
		out.OnCredit(r)
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

// FullPops reports pops that found their input FIFO full — the
// backpressure releases, each returning a credit upstream.
func (r *Router) FullPops() uint64 { return r.fullPops }

// BindWake implements sim.WakeBinder: the kernel hands the router its
// wake handle at registration, so Wake can push external re-arms into
// the kernel's wake wheel.
func (r *Router) BindWake(h sim.WakeHandle) { r.wake = h }

// Wake implements Waker: re-arm the router to scan no later than cycle at.
// Earlier than necessary is safe — the scan finds nothing grantable and
// recomputes the window. Pushes wake at the packet's readyAt; credit
// returns wake at the cycle after the pop or queue release. The re-arm is
// forwarded to the kernel's wake wheel, which is what lets the kernel skip
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
// head blocked on a full sink) acts only after an external wake, which
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
// the end of a Run segment through end-1 (the last simulated cycle). Under
// the active-ticker list a router that stays dormant to the horizon is
// never ticked again, so without this its backfilled stalls for the
// trailing stretch would be lost. Idempotent, and a no-op in the stepped
// reference, where the tick at end-1 already ran this exact accounting.
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
// output. The arbitrable heads are collected (and routed) once into
// per-output lists; after a grant, the popped port's next head joins the
// list of its output when that output is still to be served this cycle,
// matching the per-output re-read of a straightforward nested scan.
//
//sara:hotpath
func (r *Router) Tick(now sim.Cycle) {
	if r.queued == 0 {
		return // stallFrom is never: the scan that popped the last packet reset it
	}
	if r.trace.Sleep != nil && now > r.lastScan+1 {
		r.trace.Sleep(r.name, r.lastScan+1, now)
	}
	r.accrueStallGap(now)
	r.lastTick = now
	r.lastScan = now
	for o := range r.heads {
		r.heads[o] = r.heads[o][:0]
	}
	ready := false
	oldest := now
	for i, p := range r.ports {
		if len(p.fifo) == 0 {
			continue // zero buffered flits: nothing to collect or route
		}
		if pk := &p.fifo[0]; pk.readyAt <= now {
			o := r.headOut(p)
			r.heads[o] = append(r.heads[o], int32(i)) //sara:alloc-ok NewRouter sizes every list to the port count
			ready = true
			if pk.arrived < oldest {
				oldest = pk.arrived
			}
		}
	}
	// The aging pass only matters once some ready head is over-age.
	aging := r.params.AgingT > 0 && now >= oldest+r.params.AgingT
	granted := false
	for out := range r.outputs {
		idx := r.selectReady(out, now, aging)
		if idx < 0 {
			continue
		}
		p := r.ports[idx]
		pk := p.pop(now)
		if r.trace.Grant != nil {
			r.trace.Grant(r.name, now, idx, out, pk.t.ID)
		}
		r.outputs[out].Accept(pk.t, now)
		r.forwarded++
		granted = true
		r.rrPtr = (idx + 1) % len(r.ports)
		// The popped port's next head competes this cycle only for an
		// output still to be served: outputs up to out are done.
		if len(p.fifo) > 0 && p.fifo[0].readyAt <= now {
			if o := r.headOut(p); o > out {
				r.heads[o] = append(r.heads[o], int32(idx)) //sara:alloc-ok idx is in no unserved list yet, so list o has room
			}
		}
	}
	if !granted && ready {
		// Some head was ready but nothing fit downstream.
		r.stalls++
		if r.trace.Stall != nil {
			r.trace.Stall(r.name, now, 1, false)
		}
	}
	// Recompute the dormancy window and the stall origin from the
	// post-grant state. A head still traversing its link opens the window
	// at its readyAt; a ready head that survived ungranted opens it at
	// now+1 if its output can accept (it may win next cycle); a ready head
	// blocked on a full output contributes nothing — the credit return
	// re-arms the window. stallFrom is the first cycle any head is
	// arbitrable: every scan-free cycle from then on stalls.
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
			if r.outputs[r.headOut(p)].CanAccept(pk.t) {
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

// selectReady picks the port to grant for output out among the heads
// bucketed for it, or -1.
//
//sara:hotpath
func (r *Router) selectReady(out int, now sim.Cycle, aging bool) int {
	heads := r.heads[out]
	if len(heads) == 0 {
		return -1
	}
	sink := r.outputs[out]
	sel := -1
	var best *packet
	// Aging pass: any over-age head is served oldest-first.
	if aging {
		for _, i := range heads {
			pk := &r.ports[i].fifo[0]
			if now < pk.arrived+r.params.AgingT || !sink.CanAccept(pk.t) {
				continue
			}
			if best == nil || fcfsBefore(pk, best) {
				sel, best = int(i), pk
			}
		}
		if sel >= 0 {
			return sel
		}
	}
	for _, i := range heads {
		pk := &r.ports[i].fifo[0]
		if !sink.CanAccept(pk.t) {
			continue
		}
		if best == nil || r.better(pk, int(i), best, sel) {
			sel, best = int(i), pk
		}
	}
	return sel
}

// better reports whether candidate (pk, idx) beats the incumbent under the
// router's arbitration policy.
func (r *Router) better(pk *packet, idx int, inc *packet, incIdx int) bool {
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

func fcfsBefore(a, b *packet) bool {
	if a.arrived != b.arrived {
		return a.arrived < b.arrived
	}
	return a.t.ID < b.t.ID
}

func (r *Router) rrDist(idx int) int {
	return (idx - r.rrPtr + len(r.ports)) % len(r.ports)
}
