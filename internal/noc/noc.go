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
// Arbitration is event-driven, and the kernel's wake wheel is the only
// record of when a router acts next. NextActivity answers from the live
// heads: now when some arbitrable head's output can accept, else the
// earliest head still on its link, else nothing, because a head blocked on
// a full sink waits for a credit. The two events that can make a grant
// possible earlier re-arm the router's kernel wake from outside: an
// upstream injection into one of its ports (Port.Push) and a downstream
// credit return (a full FIFO pop, or a memory-controller queue release).
// So a router stays dormant between grants even while the rest of the
// system keeps executing cycles, and its stalls over a dormant stretch are
// counted when it next ticks or the run settles.
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
// conservative lookahead of the partitioned System (core.BuildParallel):
// a packet granted at cycle t cannot influence another domain before
// t + CrossDomainLatency, so domains exchange their mailboxes only every
// that many cycles. Derived from the config, never hardcoded — fuzzed hop
// latencies change the exchange period with it.
func (p Params) CrossDomainLatency() sim.Cycle { return p.HopLatency + 1 }

// Waker is the wake-propagation half of the event-driven arbitration
// contract: a component that sleeps while blocked on a full sink implements
// Waker so the credit return that unblocks it can re-arm its kernel wake.
// The receiver forwards the re-arm to its sim.WakeHandle (the kernel does
// not poll hints per executed cycle); the Router does so in Wake. Re-arming
// earlier than necessary is always safe (the component scans and finds
// nothing); failing to re-arm breaks simulation equivalence.
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
	// link, or the DMA engine injecting into the port. Each filters the
	// wakes it cannot use.
	creditTo Waker
	// onPop, when set, observes every pop (not just full ones) with the
	// pop cycle. The partitioned System uses it on cross-domain ingress
	// ports to count credits owed to the sending domain; credits travel
	// back through the mailbox exchange at the next grid cycle instead of
	// a Waker, because a domain may not touch another's state between
	// grid cycles.
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
// a router, the push re-arms the router's kernel wake at readyAt: an
// injection landing while the router sleeps must be able to pull the next
// scan forward, and under the active-ticker list a dormant router is not
// ticked to find out. The wake wheel drops a re-arm at or above the
// router's cached wake in O(1).
//
//sara:hotpath
func (p *Port) Push(t *txn.Transaction, arrived, readyAt sim.Cycle) {
	if !p.CanAccept() {
		panic("noc: push to full port")
	}
	p.fifo = append(p.fifo, packet{t: t, readyAt: readyAt, arrived: arrived, out: -1}) //sara:alloc-ok fifo backing array amortizes to the port's credit depth
	if o := p.owner; o != nil {
		o.queued++
		o.wake.Rearm(readyAt)
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
	if wasFull && p.creditTo != nil {
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

	// settled is the stall cursor: the first cycle whose stalls are not
	// yet counted. The next tick, or SettleRun, counts every cycle from
	// max(earliest head readyAt, settled) on as a stall: the router was
	// not ticked in between, so nothing could be granted, and heads leave
	// a port only in Tick, so the earliest head was queued all along.
	// lastScan is the last cycle the full scan ran, for the sleep-window
	// trace.
	settled  sim.Cycle
	lastScan sim.Cycle

	// stats
	forwarded uint64
	stalls    uint64 // cycles an arbitrable head existed but no grant fit
	fullPops  uint64 // pops of a full input FIFO (credits returned upstream)

	// trace holds the router's trace probes (see SetTrace).
	trace Trace

	// wake is the router's kernel wake handle: upstream pushes
	// (Port.Push) and credit wakes (Wake) re-arm the router through it, so
	// the active-ticker list knows to tick the router without polling
	// NextActivity. The kernel's post-tick re-key reads NextActivity.
	wake sim.WakeHandle
}

// The trace edges below are per-router probes: each Router holds one
// nil-checked function field per edge, installed through SetTrace (the
// SoC assembly does it for a whole System through core.System.Probe).
// With no subscriber the field is nil and the disabled path costs one
// load and a nil test (the steady-state alloc gates cover it). Install
// probes only while the router is not running.

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
	r := &Router{name: name, params: params, outputs: outputs, route: route}
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

// Wake implements Waker: re-arm the router to scan no later than cycle
// at. Credit returns wake at the cycle after the pop or queue release.
// Earlier than necessary is safe: the scan finds nothing grantable. The
// re-arm goes straight to the kernel's wake wheel, because a credit wake
// lands after this router's tick in its cycle, and under the active-ticker
// list a dormant router is not ticked again until its wake says so.
//
//sara:hotpath
func (r *Router) Wake(at sim.Cycle) {
	if r.queued == 0 {
		return // nothing to grant into the freed slot; a Push re-arms itself
	}
	r.wake.Rearm(at)
}

// NextActivity implements sim.Idler from the live heads: now if some head
// is arbitrable and its routed output can accept, else the earliest
// readyAt of a head still on its link. A router that is empty, or whose
// every arbitrable head is blocked on a full sink, reports no activity:
// only a push or a credit return can change that, and each re-arms the
// kernel wake itself.
//
//sara:hotpath
func (r *Router) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	next, ok := now, false
	for _, p := range r.ports {
		if len(p.fifo) == 0 {
			continue
		}
		if pk := &p.fifo[0]; pk.readyAt > now {
			if !ok || pk.readyAt < next {
				next, ok = pk.readyAt, true
			}
		} else if r.outputs[r.headOut(p)].CanAccept(pk.t) {
			return now, true
		}
	}
	return next, ok
}

// SettleRun implements sim.Settler: count the stalls of the cycles before
// end, the first cycle not simulated. Under the active-ticker list a
// router that stays dormant to the horizon is never ticked again, so
// without this its stalls over the trailing stretch would be lost.
// Idempotent, and a no-op in the stepped reference, where the tick at
// end-1 already counted them. An empty router has no stalls to count, and
// a head pushed into it later is arbitrable no earlier than its next tick.
func (r *Router) SettleRun(end sim.Cycle) {
	if end <= r.settled || r.queued == 0 {
		return
	}
	first := end
	for _, p := range r.ports {
		if len(p.fifo) > 0 && p.fifo[0].readyAt < first {
			first = p.fifo[0].readyAt
		}
	}
	r.backfill(first, end)
}

// backfill counts every cycle of [max(first, settled), now) as a stall,
// reported as one batched event, and moves the cursor to now. first is
// the earliest readyAt among the queued heads: from then on a head was
// arbitrable, and no tick ran to grant it.
func (r *Router) backfill(first, now sim.Cycle) {
	if first < r.settled {
		first = r.settled
	}
	if first < now {
		r.stalls += uint64(now - first)
		if r.trace.Stall != nil {
			r.trace.Stall(r.name, now, uint64(now-first), true)
		}
	}
	r.settled = now
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
		return
	}
	if r.trace.Sleep != nil && now > r.lastScan+1 {
		r.trace.Sleep(r.name, r.lastScan+1, now)
	}
	r.lastScan = now
	for o := range r.heads {
		r.heads[o] = r.heads[o][:0]
	}
	ready := false
	oldest := now
	first := now
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
			if pk.readyAt < first {
				first = pk.readyAt
			}
		}
	}
	r.backfill(first, now)
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
	r.settled = now + 1
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
