// Domain-parallel System construction and run control: one simulation
// run sharded across cores, one domain per memory channel, synchronized
// with conservative-lookahead epoch barriers (classic conservative PDES,
// in the style of akita's barrier-synchronized parallel engine).
//
// # Topology
//
// BuildParallel splits the SoC at construction time. Domain d owns
// channel d: its memory controller, a full-geometry DRAM instance with
// only channel d attached (so rank refresh phases match the device
// layout and the unused channels' counters stay zero), and the subset of
// the DMA roster assigned to it (round-robin per class group, so every
// domain carries a balanced mix of direct/media/system traffic — the
// address interleave spreads every unit's accesses uniformly over all
// channels, so any balanced assignment is equivalent). Each domain runs
// its own sim.Kernel — wake heap, active-ticker list, idle skipping,
// all unchanged — on its own goroutine.
//
// The serial root router is split per domain: domain d's root has one
// output per channel, routed by the same address interleave as the
// serial system. The output for the domain's own channel feeds a new
// per-channel ingress router ("chan d") directly; every other output is
// a crossLink — a bounded inter-domain mailbox ring. The chan router has
// one input port per source domain and is the single feeder of the
// memory controller, so local and remote traffic merge through ordinary
// deterministic NoC arbitration.
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
// serial execution of this topology. (The split topology itself is not
// cycle-identical to the single-root serial system: the per-channel
// ingress stage adds a hop on the request path. Equivalence is therefore
// defined — and fuzz-tested — across worker counts on the partitioned
// topology, while the serial kernel remains the default and the
// reference.)
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
// Unpartitionable configs degrade gracefully to the serial kernel.
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
	// Round-robin within each class group: the serial topology groups
	// media and system cores behind aggregation routers, so spreading
	// each group evenly keeps every domain's router tree the same shape.
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

// BuildParallel assembles the domain-parallel System on the given number
// of worker goroutines. workers is clamped to a divisor of the domain
// count in 1..Domains, so every worker owns the same number of domains;
// workers=1 runs the partitioned topology serially on the caller's
// goroutine and is the bit-identity reference for every other count
// (capping workers never changes results, only wall-clock). An
// unpartitionable cfg falls back to the serial Build, unchanged.
func BuildParallel(cfg Config, workers int) *System {
	if _, ok := Partition(cfg); !ok {
		return buildSerial(cfg)
	}
	return buildParallel(cfg, workers)
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
// noc.CreditSink the sending domain's root router grants into. Accept
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

// OnCredit implements noc.CreditSink; credits return through the epoch
// exchange (the sender lives on another goroutine), which wakes w.
func (c *crossLink) OnCredit(w noc.Waker) {
	if c.waker != nil {
		panic("core: cross-domain link already credit-wired")
	}
	c.waker = w
}

// parDomain is one per-channel domain: its own kernel, DRAM instance,
// controller, router tree, transaction pool and ID space, plus the
// outbound mailbox state other domains read at barriers.
type parDomain struct {
	idx    int
	kernel *sim.Kernel
	dram   *dram.DRAM
	ctrl   *memctrl.Controller
	units  []*Unit // this domain's subset, in global spec order

	mediaRouter *noc.Router
	sysRouter   *noc.Router
	rootRouter  *noc.Router
	chanRouter  *noc.Router
	inPort      []*noc.Port // chanRouter ports, indexed by source domain

	pool   txn.Pool
	nextID uint64
	// deliver is the long-lived completion event function (one per
	// domain, so AtArg never captures a transaction in a closure).
	deliver func(now sim.Cycle, arg any)

	// Outbound state, indexed by destination domain (self entries idle):
	// cross[c] carries requests this domain's root grants toward channel
	// c; respOut[o] carries completions owned by domain o; credFor[o]
	// counts pops of this domain's ingress port fed by o — credits owed
	// back to o, banked at o's next apply.
	cross   []*crossLink
	respOut []xferRing
	credFor []uint32
}

// errParAborted is the error every worker except the one that failed
// returns when the epoch barrier is aborted mid-run.
var errParAborted = errors.New("core: parallel run aborted by another worker")

// parRun is the epoch engine of a domain-parallel System: the domains,
// the worker pool and barrier, and the watchdog state evaluated at epoch
// boundaries.
type parRun struct {
	sys     *System
	cfg     Config
	plan    PartitionPlan
	domains []*parDomain
	workers int
	owned   [][]*parDomain // owned[w]: the domains worker w advances
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

// buildParallel assembles the partitioned System. cfg must be
// partitionable (Build and BuildParallel check before dispatching here).
func buildParallel(cfg Config, workers int) *System {
	validate(cfg)
	plan, ok := Partition(cfg)
	if !ok {
		panic("core: buildParallel on unpartitionable config")
	}
	nd := plan.Domains
	if workers < 1 {
		workers = 1
	}
	if workers > nd {
		workers = nd
	}
	for nd%workers != 0 {
		workers--
	}

	s := &System{cfg: cfg, byLabel: make(map[string]*Unit)}
	p := &parRun{
		sys:      s,
		cfg:      cfg,
		plan:     plan,
		domains:  make([]*parDomain, nd),
		workers:  workers,
		bar:      sim.NewBarrier(workers),
		epoch:    plan.Lookahead,
		cmd:      make([]chan sim.Cycle, workers),
		errs:     make([]error, workers),
		skipBase: make([]uint64, nd),
	}
	s.par = p

	nocParams := cfg.NoC
	nocParams.Arb = cfg.NoCArb()
	rng := sim.NewRand(cfg.Seed)
	burst := uint32(cfg.DRAM.Geometry.BurstBytes(cfg.DRAM.Timing))

	// Pass 1: domains with their channel-side machinery (controller,
	// DRAM instance, ingress router, completion routing).
	for d := 0; d < nd; d++ {
		dom := &parDomain{
			idx:    d,
			kernel: &sim.Kernel{},
			dram:   dram.New(cfg.DRAM),
			// Per-domain ID spaces: the top byte is the domain, so IDs
			// stay globally unique and deterministic without a shared
			// counter (FCFS arbitration breaks arrival ties by ID).
			nextID:  uint64(d+1) << 56,
			inPort:  make([]*noc.Port, nd),
			cross:   make([]*crossLink, nd),
			respOut: make([]xferRing, nd),
			credFor: make([]uint32, nd),
		}
		p.domains[d] = dom

		ctrl := memctrl.New(memctrl.Config{
			Channel:   d,
			Policy:    cfg.Policy,
			Delta:     cfg.Delta,
			AgingT:    cfg.AgingT,
			QueueCaps: cfg.QueueCaps,
		}, dom.dram)
		dom.ctrl = ctrl
		s.ctrls = append(s.ctrls, ctrl)

		// The channel ingress router: one port per source domain, single
		// output into the controller. It is the only feeder of the
		// controller, so the mcSink credit wiring stays single-owner.
		dom.chanRouter = noc.NewRouter(fmt.Sprintf("chan%d", d), nocParams, nd,
			[]noc.Sink{mcSink{ctrl: ctrl}}, nil)
		for a := 0; a < nd; a++ {
			dom.inPort[a] = dom.chanRouter.Port(a)
			if a != d {
				// Count pops so the sending domain earns its credits
				// back at the next barrier.
				src, ownDom := a, dom
				dom.inPort[a].OnPop(func(now sim.Cycle) { ownDom.credFor[src]++ })
			}
		}

		dd := dom
		dom.deliver = func(now sim.Cycle, arg any) {
			t := arg.(*txn.Transaction)
			s.units[t.Source].Engine.Deliver(t, now)
		}
		resp := cfg.NoC.RespLatency
		ctrl.OnComplete = func(t *txn.Transaction, done sim.Cycle) {
			owner := plan.UnitDomain[t.Source]
			if owner == dd.idx {
				dd.kernel.AtArg(done+resp, dd.deliver, t)
				return
			}
			dd.respOut[owner].push(t, done+resp)
		}
	}

	// Pass 2: per-domain router trees and egress links.
	portOf := make(map[int]*noc.Port, len(cfg.DMAs))
	for d, dom := range p.domains {
		var direct, media, system []int
		for i, spec := range cfg.DMAs {
			if plan.UnitDomain[i] != d {
				continue
			}
			switch spec.Class {
			case txn.ClassMedia:
				media = append(media, i)
			case txn.ClassSystem:
				system = append(system, i)
			default:
				direct = append(direct, i)
			}
		}
		if len(direct)+len(media)+len(system) == 0 {
			continue // no units: this domain only serves remote traffic
		}

		outs := make([]noc.Sink, nd)
		for c := 0; c < nd; c++ {
			if c == d {
				outs[c] = noc.PortSink{Port: dom.inPort[d], Hop: nocParams.HopLatency}
				continue
			}
			cl := &crossLink{
				ring:    xferRing{buf: make([]xferEntry, nocParams.PortDepth)},
				credits: nocParams.PortDepth,
				lat:     nocParams.CrossDomainLatency(),
			}
			dom.cross[c] = cl
			outs[c] = cl
		}

		rootPorts := len(direct)
		if len(media) > 0 {
			rootPorts++
		}
		if len(system) > 0 {
			rootPorts++
		}
		mapper := dom.dram.Mapper()
		dom.rootRouter = noc.NewRouter(fmt.Sprintf("root.d%d", d), nocParams, rootPorts, outs,
			func(t *txn.Transaction) int { return mapper.Channel(t.Addr) })

		next := 0
		for _, i := range direct {
			portOf[i] = dom.rootRouter.Port(next)
			next++
		}
		if len(media) > 0 {
			sink := noc.PortSink{Port: dom.rootRouter.Port(next), Hop: nocParams.HopLatency}
			next++
			dom.mediaRouter = noc.NewRouter(fmt.Sprintf("media.d%d", d), nocParams, len(media), []noc.Sink{sink}, nil)
			for pi, i := range media {
				portOf[i] = dom.mediaRouter.Port(pi)
			}
		}
		if len(system) > 0 {
			sink := noc.PortSink{Port: dom.rootRouter.Port(next), Hop: nocParams.HopLatency}
			dom.sysRouter = noc.NewRouter(fmt.Sprintf("system.d%d", d), nocParams, len(system), []noc.Sink{sink}, nil)
			for pi, i := range system {
				portOf[i] = dom.sysRouter.Port(pi)
			}
		}
	}

	// Pass 3: units in global spec order (so txn.Source indexes s.units
	// and address regions match the serial layout), each built against
	// its owning domain's pool and ID counter.
	for i, spec := range cfg.DMAs {
		if _, dup := s.byLabel[spec.Label()]; dup {
			panic(fmt.Sprintf("core: duplicate DMA label %q", spec.Label()))
		}
		dom := p.domains[plan.UnitDomain[i]]
		u := buildUnit(unitDeps{cfg: cfg, pool: &dom.pool, nextID: &dom.nextID},
			i, spec, portOf[i], rng.Fork(uint64(i)), burst)
		s.units = append(s.units, u)
		s.byLabel[u.Label()] = u
		dom.units = append(dom.units, u)
	}

	// Response mailboxes: sized to the owner's total transaction window
	// (a domain can never owe more completions than the owner has in
	// flight), so pushes never allocate and overflow is an invariant trip.
	for _, dom := range p.domains {
		var slots int
		for _, u := range dom.units {
			w := u.Spec.Window
			if w <= 0 {
				w = defaultWindow(u.Spec.Source.Kind)
			}
			slots += w
		}
		for _, src := range p.domains {
			if src != dom && slots > 0 {
				src.respOut[dom.idx].buf = make([]xferEntry, slots)
			}
		}
	}

	// Pass 4: per-domain registration, mirroring the serial pipeline
	// order (sources, engines, aggregation routers, root, channel
	// ingress, controller) so co-due ticks execute identically.
	for _, dom := range p.domains {
		srcWakes := make([]sim.WakeHandle, len(dom.units))
		for i, u := range dom.units {
			srcWakes[i] = dom.kernel.Register(u.Source)
		}
		for i, u := range dom.units {
			dom.kernel.Register(u.Engine)
			kind := u.Spec.Source.Kind
			u.Engine.BindSourceWake(srcWakes[i], kind == SrcDisplay || kind == SrcCamera)
		}
		if dom.mediaRouter != nil {
			dom.kernel.Register(dom.mediaRouter)
		}
		if dom.sysRouter != nil {
			dom.kernel.Register(dom.sysRouter)
		}
		if dom.rootRouter != nil {
			dom.kernel.Register(dom.rootRouter)
		}
		dom.kernel.Register(dom.chanRouter)
		dom.kernel.Register(dom.ctrl)

		units := dom.units
		dom.kernel.Every(cfg.AdaptInterval, func(now sim.Cycle) {
			for _, u := range units {
				if u.Adapter != nil {
					u.Adapter.Tick(now)
				}
			}
		})
		dom.kernel.Every(cfg.SampleEvery, func(now sim.Cycle) {
			for _, u := range units {
				if u.Meter != nil && u.Series != nil {
					u.Series.Append(now, u.Meter.NPI(now))
				}
			}
		})
	}

	// Static worker assignment: worker w owns domains w, w+workers, ...
	// (workers divides the domain count, so shares are equal).
	p.owned = make([][]*parDomain, workers)
	for d, dom := range p.domains {
		w := d % workers
		p.owned[w] = append(p.owned[w], dom)
	}
	return s
}

// now reports the system clock: every domain kernel agrees between run
// segments, so domain 0 speaks for all.
func (p *parRun) now() sim.Cycle { return p.domains[0].kernel.Now() }

// routers lists every router, per domain in domain order.
func (p *parRun) routers() []*noc.Router {
	var out []*noc.Router
	for _, dom := range p.domains {
		if dom.mediaRouter != nil {
			out = append(out, dom.mediaRouter)
		}
		if dom.sysRouter != nil {
			out = append(out, dom.sysRouter)
		}
		if dom.rootRouter != nil {
			out = append(out, dom.rootRouter)
		}
		out = append(out, dom.chanRouter)
	}
	return out
}

// dramStats merges the per-domain device snapshots (each domain only
// touches its own channel, so the merge is exact).
func (p *parRun) dramStats() dram.Stats {
	parts := make([]dram.Stats, len(p.domains))
	for i, dom := range p.domains {
		parts[i] = dom.dram.Stats()
	}
	return dram.MergeStats(parts...)
}

// setWatchdog installs wd and resets the boundary-check baselines.
func (p *parRun) setWatchdog(wd *sim.Watchdog) {
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
	every := wd.CheckEvery
	if every == 0 {
		every = 4096
	}
	p.nextCheckAt = now + sim.Cycle(every)
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
// heaps live across several kernels; the reason plus counts identify
// the trip, and a serial re-run of the repro line gives the full dump).
func (p *parRun) deadlock(now sim.Cycle, executed uint64, reason string) error {
	e := &sim.DeadlockError{Reason: reason, Now: now, Executed: executed}
	if p.wd.Outstanding != nil {
		e.Outstanding = p.wd.Outstanding()
	}
	return e
}

// run advances every domain to horizon. Worker 0 is the caller; workers
// 1..n-1 are persistent goroutines spawned on first use and parked on
// their command channel between segments. A worker error (panic,
// watchdog trip) aborts the barrier so every worker unwinds; the run is
// then poisoned — the mailbox exchange stopped mid-epoch, so the
// simulation state is no longer consistent and further runs refuse.
func (p *parRun) run(horizon sim.Cycle, checked bool) error {
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
func (p *parRun) apply(dom *parDomain, now sim.Cycle) {
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
