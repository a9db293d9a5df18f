// Domain-parallel System construction and run control: one simulation
// run sharded across cores, one domain per memory channel, synchronized
// with conservative-lookahead epoch barriers (classic conservative PDES,
// in the style of akita's barrier-synchronized parallel engine).
//
// # Topology
//
// Every System is built from domains, each owning a set of memory
// channels: their controllers, a full-geometry DRAM instance (only the
// owned channels see commands, so rank refresh phases match the device
// layout and the other channels' counters stay zero), and a subset of the
// DMA roster. Each domain runs its own sim.Kernel — wake wheel,
// active-ticker list, idle skipping, all unchanged.
//
// A domain's root router has one output per channel, routed by the
// address interleave. One domain owning every channel is the serial
// system: every root output feeds its channel's controller directly,
// giving the single-root Fig. 1 topology with one kernel, one DRAM and
// no epochs. BuildParallel instead gives every channel its own domain
// and assigns the DMAs round-robin per class group, so every domain
// carries a balanced mix of direct/media/system traffic (the address
// interleave spreads every unit's accesses uniformly over all channels,
// so any balanced assignment is equivalent). Only across domains is
// there an ingress hop: the output for a domain's own channel feeds a
// per-channel ingress router ("chanN"), and every other output is a
// crossLink — a bounded inter-domain mailbox ring. The chan router has
// one input port per source domain and is the single feeder of the
// memory controller, so local and remote traffic merge through ordinary
// deterministic NoC arbitration. The domains run on worker goroutines.
//
// # Lookahead and the epoch loop
//
// The epoch length is noc.Params.CrossDomainLatency (link hop + the
// one-cycle injection stage of the receiving port), computed from the
// config — never hardcoded. A packet a domain grants at cycle t cannot
// become visible to another domain before t + lookahead, so domains
// advance through a fixed epoch grid (0, L, 2L, ...) and exchange
// mailboxes only at grid boundaries:
//
//	for now < horizon:
//	  if now is on the grid: apply inbound mailboxes; barrier
//	  run own domains to min(next grid point, horizon); barrier
//
// The two barriers per epoch separate the mailbox-write phase (runs)
// from the mailbox-read phase (applies), so rings are plain memory — the
// barrier's atomic generation counter is the only synchronization, and
// `go test -race` over the differential suite is the proof.
//
// # Determinism
//
// Applies walk source domains in index order and rings in FIFO order,
// so cross-domain packets enter ports — and response events enter the
// event heap — in an order that depends only on the simulation state,
// never on goroutine scheduling. Worker counts only change which
// goroutine runs a domain, not any order the simulation observes:
// results are bit-identical across worker counts, and workers=1 is the
// serial execution of the per-channel topology. That topology is not
// cycle-identical to the one-domain serial system — the ingress hop
// exists only across domains and adds a stage to the request path — so
// equivalence is defined, and fuzz-tested, across worker counts on the
// per-channel topology, while the one-domain system remains the default
// and the reference.
//
// # Credits
//
// Cross-domain backpressure is credit-based like every other link:
// a crossLink starts with one credit per slot of its remote ingress
// port, spends one per accepted packet, and earns them back from the
// remote port's pops. Returned credits become visible at the next epoch
// boundary (noc.Port.OnPop counts them on the remote side; the apply
// phase banks them and wakes the sender's root router), which is
// conservative, deterministic, and independent of worker count.
package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// PartitionPlan describes how BuildParallel shards a config: one domain
// per memory channel, each unit assigned to exactly one domain, and the
// conservative lookahead every domain may run ahead of the others.
type PartitionPlan struct {
	// Domains is the domain count (the channel count).
	Domains int
	// Lookahead is the epoch length: the minimum latency of any
	// cross-domain interaction, derived from the NoC config.
	Lookahead sim.Cycle
	// UnitDomain maps each DMA spec index to its owning domain.
	UnitDomain []int
}

// Partition derives the domain partition for cfg, reporting ok=false
// when the topology cannot be sharded: fewer than two channels (nothing
// to split), no DMAs, or a response latency shorter than the lookahead
// (a completion could then become visible to its owner before the next
// barrier, which the conservative exchange cannot deliver in time).
// Unpartitionable configs build as one domain: the serial system.
func Partition(cfg Config) (PartitionPlan, bool) {
	channels := cfg.DRAM.Geometry.Channels
	look := cfg.NoC.CrossDomainLatency()
	if channels < 2 || len(cfg.DMAs) == 0 || cfg.NoC.RespLatency < look {
		return PartitionPlan{}, false
	}
	plan := PartitionPlan{
		Domains:    channels,
		Lookahead:  look,
		UnitDomain: make([]int, len(cfg.DMAs)),
	}
	// Round-robin within each class group: every router tree groups
	// media and system cores behind aggregation routers, so spreading
	// each group evenly keeps every domain's tree the same shape.
	var perClass [3]int
	for i, spec := range cfg.DMAs {
		g := 0
		switch spec.Class {
		case txn.ClassMedia:
			g = 1
		case txn.ClassSystem:
			g = 2
		}
		plan.UnitDomain[i] = perClass[g] % channels
		perClass[g]++
	}
	return plan, true
}

// serialPlan is the one-domain partition: every channel and every DMA
// in domain 0.
func serialPlan(cfg Config) PartitionPlan {
	return PartitionPlan{Domains: 1, UnitDomain: make([]int, len(cfg.DMAs))}
}

// BuildParallel assembles the domain-parallel System, one domain per
// channel, on the given number of worker goroutines. workers is clamped
// to a divisor of the domain count in 1..Domains, so every worker owns
// the same number of domains; workers=1 runs the partitioned topology
// serially on the caller's goroutine and is the bit-identity reference
// for every other count (capping workers never changes results, only
// wall-clock). An unpartitionable cfg builds the serial System, as Build
// does.
func BuildParallel(cfg Config, workers int) *System {
	plan, ok := Partition(cfg)
	if !ok {
		plan, workers = serialPlan(cfg), 1
	}
	return build(cfg, plan, workers)
}

// xferEntry is one mailbox slot: a transaction and the cycle it becomes
// visible on the receiving side.
type xferEntry struct {
	t   *txn.Transaction
	due sim.Cycle
}

// xferRing is a pre-sized mailbox: written by the owning domain during
// the run phase, fully drained by the receiving domain during the apply
// phase, so it is plain memory with barrier-ordered access and never
// allocates after construction.
type xferRing struct {
	buf []xferEntry
	n   int
}

//sara:hotpath
func (r *xferRing) push(t *txn.Transaction, due sim.Cycle) {
	if r.n == len(r.buf) {
		panic(fmt.Sprintf("core: mailbox overflow (%d slots)", len(r.buf))) //sara:alloc-ok invariant-violation panic path
	}
	r.buf[r.n] = xferEntry{t: t, due: due}
	r.n++
}

// crossLink is the egress half of a cross-domain request link: a
// noc.Sink the sending domain's root router grants into. Accept
// stamps the packet with the link latency and files it in the mailbox;
// the receiving domain pushes it into its channel-ingress port at the
// next barrier. credits mirrors the free slots of that remote port.
type crossLink struct {
	ring    xferRing
	credits int
	lat     sim.Cycle // CrossDomainLatency: hop + injection stage
	waker   noc.Waker // the sending root router, wired via OnCredit
}

//sara:hotpath
func (c *crossLink) CanAccept(*txn.Transaction) bool { return c.credits > 0 }

//sara:hotpath
func (c *crossLink) Accept(t *txn.Transaction, now sim.Cycle) {
	c.credits--
	c.ring.push(t, now+c.lat)
}

// OnCredit implements noc.Sink; credits return through the epoch
// exchange (the sender lives on another goroutine), which wakes w.
func (c *crossLink) OnCredit(w noc.Waker) {
	if c.waker != nil {
		panic("core: cross-domain link already credit-wired")
	}
	c.waker = w
}

// domain is one shard of a System: its own kernel, DRAM instance, owned
// controllers, router tree, transaction pool and ID space, plus — with
// several domains — the channel ingress router and the outbound mailbox
// state other domains read at barriers.
type domain struct {
	idx    int
	kernel *sim.Kernel
	dram   *dram.DRAM
	ctrls  []*memctrl.Controller // the owned channels', in channel order
	units  []*Unit               // this domain's subset, in global spec order

	mediaRouter *noc.Router
	sysRouter   *noc.Router
	rootRouter  *noc.Router
	chanRouter  *noc.Router
	inPort      []*noc.Port // chanRouter ports, indexed by source domain

	pool   txn.Pool
	nextID uint64
	// deliver is the System's long-lived completion event function (so
	// AtArg never captures a transaction in a closure).
	deliver func(now sim.Cycle, arg any)

	// Outbound state, indexed by destination domain (self entries idle;
	// all nil with one domain): cross[c] carries requests this domain's
	// root grants toward channel c; respOut[o] carries completions owned
	// by domain o; credFor[o] counts pops of this domain's ingress port
	// fed by o — credits owed back to o, banked at o's next apply.
	cross   []*crossLink
	respOut []xferRing
	credFor []uint32
}

// routers lists the domain's routers in tick order.
func (d *domain) routers() []*noc.Router {
	var out []*noc.Router
	for _, r := range []*noc.Router{d.mediaRouter, d.sysRouter, d.rootRouter, d.chanRouter} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// errParAborted is the error every worker except the one that failed
// returns when the epoch barrier is aborted mid-run.
var errParAborted = errors.New("core: parallel run aborted by another worker")

// parRun is the run control of a System: the domains, and with several
// domains the worker pool and barrier of the epoch loop and the watchdog
// state evaluated at epoch boundaries. One domain runs without epochs.
type parRun struct {
	domains []*domain
	workers int
	owned   [][]*domain // owned[w]: the domains worker w advances
	bar     *sim.Barrier
	epoch   sim.Cycle

	started  bool
	cmd      []chan sim.Cycle // per extra worker: next segment horizon
	wg       sync.WaitGroup
	errs     []error
	poisoned error

	// Watchdog state (checked runs only, evaluated by worker 0 at epoch
	// boundaries — the only instants every domain is quiescent).
	wd          *sim.Watchdog
	checked     bool
	nowBase     sim.Cycle
	skipBase    []uint64
	nextCheckAt sim.Cycle
	lastProg    uint64
	progAt      uint64 // executed count at the last progress change
}

// newParRun sets up the run control of domains on workers goroutines
// (a divisor of the domain count) with the given epoch length. Worker w
// owns domains w, w+workers, ..., so shares are equal.
func newParRun(domains []*domain, epoch sim.Cycle, workers int) *parRun {
	p := &parRun{
		domains:  domains,
		workers:  workers,
		owned:    make([][]*domain, workers),
		bar:      sim.NewBarrier(workers),
		epoch:    epoch,
		cmd:      make([]chan sim.Cycle, workers),
		errs:     make([]error, workers),
		skipBase: make([]uint64, len(domains)),
	}
	for d, dom := range domains {
		p.owned[d%workers] = append(p.owned[d%workers], dom)
	}
	return p
}

// now reports the system clock: every domain kernel agrees between run
// segments, so domain 0 speaks for all.
func (p *parRun) now() sim.Cycle { return p.domains[0].kernel.Now() }

// sole returns the kernel of a one-domain System, nil with several.
func (p *parRun) sole() *sim.Kernel {
	if len(p.domains) != 1 {
		return nil
	}
	return p.domains[0].kernel
}

// setWatchdog installs wd: on a one-domain System's kernel, otherwise
// for the boundary checks, resetting their baselines.
func (p *parRun) setWatchdog(wd *sim.Watchdog) {
	if k := p.sole(); k != nil {
		k.SetWatchdog(wd)
		return
	}
	p.wd = wd
	p.nowBase = p.now()
	for i, dom := range p.domains {
		p.skipBase[i] = dom.kernel.SkippedCycles()
	}
	p.nextCheckAt = 0
	p.progAt = 0
	if wd != nil && wd.Progress != nil {
		p.lastProg = wd.Progress()
	}
}

// executedCycles approximates the executed (non-skipped) cycle count
// across all domains since the watchdog was armed. Only called at epoch
// boundaries, where every domain's counters are quiescent.
func (p *parRun) executedCycles(now sim.Cycle) uint64 {
	var executed uint64
	for i, dom := range p.domains {
		executed += uint64(now-p.nowBase) - (dom.kernel.SkippedCycles() - p.skipBase[i])
	}
	return executed
}

// checkWatchdog runs the boundary watchdog checks (worker 0, checked
// runs only). The parked-deadlock probe of the serial watchdog has no
// safe multi-kernel analogue, so livelock detection here rests on the
// progress budget and the wall-clock deadline; both read only quiescent
// state (no domain runs during the apply phase).
func (p *parRun) checkWatchdog(now sim.Cycle) error {
	wd := p.wd
	if wd == nil || !p.checked {
		return nil
	}
	executed := p.executedCycles(now)
	if wd.MaxExecuted > 0 && executed > wd.MaxExecuted {
		return p.deadlock(now, executed, fmt.Sprintf("cycle budget exceeded (%d executed cycles)", wd.MaxExecuted))
	}
	if now < p.nextCheckAt {
		return nil
	}
	p.nextCheckAt = now + sim.Cycle(wd.Interval())
	//sara:wallclock the watchdog's deadline check is about the host clock by design
	if !wd.Deadline.IsZero() && time.Now().After(wd.Deadline) {
		return p.deadlock(now, executed, fmt.Sprintf("wall-clock deadline exceeded (%s)", wd.Deadline.Format(time.RFC3339)))
	}
	if wd.Progress != nil && wd.ProgressBudget > 0 {
		if prog := wd.Progress(); prog != p.lastProg {
			p.lastProg = prog
			p.progAt = executed
		} else if executed-p.progAt > wd.ProgressBudget {
			return p.deadlock(now, executed, fmt.Sprintf("no progress in %d executed cycles", executed-p.progAt))
		}
	}
	return nil
}

// deadlock builds the watchdog trip error (no per-idler dump: the wake
// wheels live across several kernels; the reason plus counts identify
// the trip, and a serial re-run of the repro line gives the full dump).
func (p *parRun) deadlock(now sim.Cycle, executed uint64, reason string) error {
	e := &sim.DeadlockError{Reason: reason, Now: now, Executed: executed}
	if p.wd.Outstanding != nil {
		e.Outstanding = p.wd.Outstanding()
	}
	return e
}

// run advances every domain to horizon. A one-domain System has nothing
// to exchange, so its kernel runs straight to the horizon. With several
// domains, worker 0 is the caller; workers 1..n-1 are persistent
// goroutines spawned on first use and parked on their command channel
// between segments. A worker error (panic, watchdog trip) aborts the
// barrier so every worker unwinds; the run is then poisoned — the
// mailbox exchange stopped mid-epoch, so the simulation state is no
// longer consistent and further runs refuse.
func (p *parRun) run(horizon sim.Cycle, checked bool) error {
	if k := p.sole(); k != nil {
		if checked {
			return k.RunChecked(horizon)
		}
		k.Run(horizon)
		return nil
	}
	if p.poisoned != nil {
		if !checked {
			panic(p.poisoned)
		}
		return p.poisoned
	}
	p.checked = checked
	if !p.started {
		for w := 1; w < p.workers; w++ {
			p.cmd[w] = make(chan sim.Cycle)
			go p.workerLoop(w)
		}
		p.started = true
	}
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.cmd[w] <- horizon
	}
	p.errs[0] = p.worker(0, horizon)
	p.wg.Wait()

	var err error
	for _, e := range p.errs {
		if e != nil && !errors.Is(e, errParAborted) {
			err = e
			break
		}
	}
	if err == nil {
		for _, e := range p.errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err != nil {
		p.poisoned = err
		if !checked {
			if pe, ok := err.(*sim.PanicError); ok {
				panic(pe.Value)
			}
			panic(err)
		}
		return err
	}
	return nil
}

// workerLoop is the persistent body of an extra worker: run a segment
// per command, then park. It lives until close.
func (p *parRun) workerLoop(w int) {
	for horizon := range p.cmd[w] {
		p.errs[w] = p.worker(w, horizon)
		p.wg.Done()
	}
	p.wg.Done()
}

// close stops the parked extra workers and waits for them to exit. The
// next run spawns fresh ones.
func (p *parRun) close() {
	if !p.started {
		return
	}
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		close(p.cmd[w])
	}
	p.wg.Wait()
	p.started = false
}

// worker advances this worker's domains to horizon through the epoch
// grid. Every worker executes the same control flow from the same
// (now, horizon) pair, so they agree on the barrier count per segment.
// Like Kernel.Run, this is the segment driver, not the hot path itself:
// the per-cycle machinery it invokes (Kernel.Step and the active list)
// and the per-epoch exchange (apply, Barrier.Wait, the mailbox rings)
// carry their own //sara:hotpath marks, while the driver keeps the cold
// containment work — the recover, the watchdog, error formatting.
func (p *parRun) worker(w int, horizon sim.Cycle) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.bar.Abort()
			err = &sim.PanicError{Value: r, Stack: debug.Stack()} //sara:alloc-ok panic containment path
		}
	}()
	mine := p.owned[w]
	clock := mine[0].kernel
	for {
		now := clock.Now()
		if now >= horizon {
			return nil
		}
		if now%p.epoch == 0 {
			if w == 0 {
				if werr := p.checkWatchdog(now); werr != nil {
					p.bar.Abort()
					return werr
				}
			}
			for _, dom := range mine {
				p.apply(dom, now)
			}
			if !p.bar.Wait() {
				return errParAborted
			}
		}
		end := now + (p.epoch - now%p.epoch)
		if end > horizon {
			end = horizon
		}
		for _, dom := range mine {
			dom.kernel.Run(end)
		}
		if !p.bar.Wait() {
			return errParAborted
		}
	}
}

// apply drains every mailbox targeting dom at an epoch boundary:
// requests into the channel-ingress ports, completions into the event
// heap, returned credits into the egress links. Source domains are
// walked in index order and rings in FIFO order, so the outcome depends
// only on simulation state — this is the determinism pivot of the whole
// design. All mailbox memory it touches was written before the previous
// barrier and is not rewritten until the next one.
//
//sara:hotpath
func (p *parRun) apply(dom *domain, now sim.Cycle) {
	for a, src := range p.domains {
		if a == dom.idx {
			continue
		}
		if cl := src.cross[dom.idx]; cl != nil {
			for i := 0; i < cl.ring.n; i++ {
				e := cl.ring.buf[i]
				dom.inPort[a].Push(e.t, e.due, e.due)
			}
			cl.ring.n = 0
		}
	}
	for _, src := range p.domains {
		if src == dom {
			continue
		}
		ring := &src.respOut[dom.idx]
		for i := 0; i < ring.n; i++ {
			e := ring.buf[i]
			dom.kernel.AtArg(e.due, dom.deliver, e.t) //sara:alloc-ok pointer payload into the event heap; the backing array is amortized and pre-warmed after the first frame
		}
		ring.n = 0
	}
	for a, rem := range p.domains {
		if a == dom.idx {
			continue
		}
		if n := rem.credFor[dom.idx]; n != 0 {
			rem.credFor[dom.idx] = 0
			cl := dom.cross[a]
			cl.credits += int(n)
			cl.waker.Wake(now)
		}
	}
}
