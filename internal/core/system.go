package core

import (
	"fmt"
	"math"

	"sara/internal/adapt"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/meter"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/stats"
	"sara/internal/traffic"
	"sara/internal/txn"
)

// Unit is one assembled DMA: engine, traffic source, meter, adapter and
// the sampled NPI time series.
type Unit struct {
	Spec    DMASpec
	Engine  *dma.Engine
	Source  traffic.Source
	Meter   meter.Meter
	Adapter *adapt.Adapter
	Series  *stats.Series
}

// Label returns the unit's full DMA name.
func (u *Unit) Label() string { return u.Spec.Label() }

// System is a fully wired MPSoC memory subsystem: one sim.Kernel and one
// dram.DRAM, with the components built as a set of domains (see
// parallel.go). A domain owns a set of memory channels, their
// controllers and a share of the DMA roster. The serial System is one
// domain owning every channel — the single-root Fig. 1 topology — and
// the partitioned System built by BuildParallel has one domain per
// channel, exchanging cross-domain traffic in a periodic kernel event.
// The run-control and statistics methods work identically on both.
type System struct {
	cfg     Config
	kernel  *sim.Kernel
	dram    *dram.DRAM
	units   []*Unit
	ctrls   []*memctrl.Controller
	byLabel map[string]*Unit

	// probed records that Probe installed the System's one subscriber.
	probed bool

	domains []*domain
	// deliver is the long-lived completion event function (so AtArg
	// never captures a transaction in a closure).
	deliver func(now sim.Cycle, arg any)
}

// mcSink adapts a memory controller into a NoC sink with credit returns:
// a CAS that frees a slot in a full class queue wakes the router feeding
// the controller (the root, or with several domains the channel ingress
// router), which can grant into the slot from the next cycle on (the
// controller ticks after the router, so the freed slot is usable at
// now+1). Accept is also the enqueue edge of the controller's per-bank
// candidate buckets: Enqueue files the transaction into its bank bucket,
// marks the bank dirty and re-arms the controller's kernel wake at now,
// so a packet granted mid-quiescence is considered in the cycle it
// arrives (see memctrl/bucket.go).
type mcSink struct {
	ctrl *memctrl.Controller
}

func (s mcSink) CanAccept(t *txn.Transaction) bool { return s.ctrl.SpaceFor(t.Class) }
func (s mcSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.ctrl.Enqueue(t, now)
}

// OnCredit implements noc.Sink. A controller has exactly one
// upstream router; wiring a second would silently steal the first one's
// credit wakes and break skip-vs-step equivalence, so it panics instead.
func (s mcSink) OnCredit(w noc.Waker) {
	if s.ctrl.OnRelease != nil {
		panic(fmt.Sprintf("core: controller %d already credit-wired", s.ctrl.Config().Channel))
	}
	// The upstream is always a router (noc.NewRouter does the wiring);
	// queue releases are reported on its credit probe under the
	// controller's own name.
	name := fmt.Sprintf("mc%d", s.ctrl.Config().Channel)
	r := w.(*noc.Router)
	s.ctrl.OnRelease = func(class txn.Class, now sim.Cycle) {
		r.TraceCredit(name, now, int(class), true)
		r.Wake(now + 1)
	}
}

// regionBytes is the address space carved out per DMA. 16 MiB spans many
// rows and banks, so distinct DMAs interleave realistically.
const regionBytes = 16 << 20

// Build assembles the serial System from cfg: one domain owning every
// channel. It panics with cfg.Validate's error on a config it refuses
// (configs are code, not user input). BuildParallel builds the
// partitioned System.
func Build(cfg Config) *System {
	return build(cfg, serialPlan(cfg))
}

// build assembles cfg as plan's domains on one kernel and one DRAM.
// Channel c belongs to domain c % plan.Domains: one domain owns every
// channel, and a per-channel plan gives each domain exactly one, the
// shape the exchange (ingress routers, cross links, mailboxes) is built
// for.
func build(cfg Config, plan PartitionPlan) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nd := plan.Domains
	channels := cfg.DRAM.Geometry.Channels

	k := &sim.Kernel{}
	s := &System{cfg: cfg, kernel: k, dram: dram.New(cfg.DRAM), byLabel: make(map[string]*Unit), domains: make([]*domain, nd)}
	nocParams := cfg.NoC
	nocParams.Arb = cfg.NoCArb()
	rng := sim.NewRand(cfg.Seed)
	burst := uint32(cfg.DRAM.Geometry.BurstBytes(cfg.DRAM.Timing))
	resp := cfg.NoC.RespLatency

	// One long-lived deliver function plus a per-event transaction
	// pointer keeps the completion path allocation-free (a closure
	// capturing t would allocate on every completion).
	s.deliver = func(now sim.Cycle, arg any) {
		t := arg.(*txn.Transaction)
		s.units[t.Source].Engine.Deliver(t, now)
	}
	for d := range s.domains {
		dom := &domain{idx: d}
		if nd > 1 {
			// Per-domain ID spaces: the top byte is the domain, so IDs
			// stay globally unique and deterministic without a shared
			// counter (FCFS arbitration breaks arrival ties by ID).
			dom.nextID = uint64(d+1) << 56
			dom.inPort = make([]*noc.Port, nd)
			dom.cross = make([]*crossLink, nd)
			dom.respOut = make([]xferRing, nd)
			dom.credFor = make([]uint32, nd)
		}
		s.domains[d] = dom
	}

	// Memory controllers, one per channel in channel order, each in its
	// owning domain and completing into the response delay pipe of the
	// domain that owns the transaction's DMA. feed[c] is where channel
	// c's own domain delivers its requests: the controller itself, or,
	// with several domains, the channel's ingress router ("chanN"),
	// which has one input port per source domain and is the single
	// feeder of the controller, so local and remote traffic merge
	// through ordinary deterministic NoC arbitration and the mcSink
	// credit wiring stays single-owner.
	feed := make([]noc.Sink, channels)
	for ch := 0; ch < channels; ch++ {
		dom := s.domains[ch%nd]
		ctrl := memctrl.New(memctrl.Config{
			Channel:   ch,
			Policy:    cfg.Policy,
			Delta:     cfg.Delta,
			AgingT:    cfg.AgingT,
			QueueCaps: cfg.QueueCaps,
		}, s.dram)
		ctrl.OnComplete = func(t *txn.Transaction, done sim.Cycle) {
			if owner := plan.UnitDomain[t.Source]; owner != dom.idx {
				dom.respOut[owner].push(t, done+resp)
				return
			}
			k.AtArg(done+resp, s.deliver, t)
		}
		dom.ctrls = append(dom.ctrls, ctrl)
		s.ctrls = append(s.ctrls, ctrl)
		if nd == 1 {
			feed[ch] = mcSink{ctrl: ctrl}
			continue
		}
		dom.chanRouter = noc.NewRouter(fmt.Sprintf("chan%d", ch), nocParams, nd,
			[]noc.Sink{mcSink{ctrl: ctrl}}, nil)
		for a := 0; a < nd; a++ {
			dom.inPort[a] = dom.chanRouter.Port(a)
			if a != dom.idx {
				// Count pops so the sending domain earns its credits
				// back at the next exchange.
				dom.inPort[a].OnPop(func(now sim.Cycle) { dom.credFor[a]++ })
			}
		}
		feed[ch] = noc.PortSink{Port: dom.inPort[dom.idx], Hop: nocParams.HopLatency}
	}

	// Per-domain router trees in the Fig. 1 shape: CPU/GPU/DSP direct to
	// the domain's root router; media and system cores behind
	// aggregation routers. The root has one output per channel, routed
	// by the address interleave: the domain's own channels take their
	// feed, every other channel a crossLink — a bounded inter-domain
	// mailbox ring. With several domains the router names carry the
	// domain (".dN").
	portOf := make([]*noc.Port, len(cfg.DMAs))
	for d, dom := range s.domains {
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

		outs := make([]noc.Sink, channels)
		for c := range outs {
			if c%nd == d {
				outs[c] = feed[c]
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
		suffix := ""
		if nd > 1 {
			suffix = fmt.Sprintf(".d%d", d)
		}

		rootPorts := len(direct)
		if len(media) > 0 {
			rootPorts++
		}
		if len(system) > 0 {
			rootPorts++
		}
		mapper := s.dram.Mapper()
		dom.rootRouter = noc.NewRouter("root"+suffix, nocParams, rootPorts, outs,
			func(t *txn.Transaction) int { return mapper.Channel(t.Addr) })

		next := 0
		for _, i := range direct {
			portOf[i] = dom.rootRouter.Port(next)
			next++
		}
		if len(media) > 0 {
			sink := noc.PortSink{Port: dom.rootRouter.Port(next), Hop: nocParams.HopLatency}
			next++
			dom.mediaRouter = noc.NewRouter("media"+suffix, nocParams, len(media), []noc.Sink{sink}, nil)
			for pi, i := range media {
				portOf[i] = dom.mediaRouter.Port(pi)
			}
		}
		if len(system) > 0 {
			sink := noc.PortSink{Port: dom.rootRouter.Port(next), Hop: nocParams.HopLatency}
			dom.sysRouter = noc.NewRouter("system"+suffix, nocParams, len(system), []noc.Sink{sink}, nil)
			for pi, i := range system {
				portOf[i] = dom.sysRouter.Port(pi)
			}
		}
	}

	// DMAs, sources, meters and adapters, in global spec order (so
	// txn.Source indexes s.units and address regions do not depend on
	// the partition), each drawing transactions and IDs from its owning
	// domain.
	for i, spec := range cfg.DMAs {
		dom := s.domains[plan.UnitDomain[i]]
		u := buildUnit(unitDeps{cfg: cfg, pool: &dom.pool, nextID: &dom.nextID},
			i, spec, portOf[i], rng.Fork(uint64(i)), burst)
		s.units = append(s.units, u)
		s.byLabel[u.Label()] = u
		dom.units = append(dom.units, u)
	}

	// Response mailboxes: sized to the owner's total transaction window
	// (a domain can never owe more completions than the owner has in
	// flight), so pushes never allocate and overflow is an invariant trip.
	for _, dom := range s.domains {
		var slots int
		for _, u := range dom.units {
			w := u.Spec.Window
			if w <= 0 {
				w = defaultWindow(u.Spec.Source.Kind)
			}
			slots += w
		}
		for _, src := range s.domains {
			if src != dom && slots > 0 {
				src.respOut[dom.idx].buf = make([]xferEntry, slots)
			}
		}
	}

	// Per-cycle pipeline order, domain by domain: sources generate,
	// DMAs inject, aggregation routers forward, the root router delivers
	// (through the channel ingress router, with several domains) into
	// the controllers, and the controllers issue DRAM commands. Every
	// component carries its sim.Idler hint, so the kernel can
	// fast-forward over quiescence. Registration also binds the
	// push-based wake wiring: engines, routers and controllers receive
	// their kernel wake handles through sim.WakeBinder, and each engine
	// additionally gets its source's handle — the engine is the
	// component that observes the two events that can move a source's
	// next activity earlier (a pending-queue pop from full, a completion
	// delivery), so it owns those re-arms.
	for _, dom := range s.domains {
		srcWakes := make([]sim.WakeHandle, len(dom.units))
		for i, u := range dom.units {
			srcWakes[i] = k.Register(u.Source)
		}
		for i, u := range dom.units {
			k.Register(u.Engine)
			// Only the occupancy-tracking sources consult
			// completion-mutated state (buffer in-flight bytes) in their
			// activity hints; the rest need no per-delivery re-arm.
			kind := u.Spec.Source.Kind
			u.Engine.BindSourceWake(srcWakes[i], kind == SrcDisplay || kind == SrcCamera)
		}
		for _, r := range dom.routers() {
			k.Register(r)
		}
		for _, c := range dom.ctrls {
			k.Register(c)
		}

		// Adaptation and NPI sampling.
		units := dom.units
		k.Every(cfg.AdaptInterval, func(now sim.Cycle) {
			for _, u := range units {
				if u.Adapter != nil {
					u.Adapter.Tick(now)
				}
			}
		})
		k.Every(cfg.SampleEvery, func(now sim.Cycle) {
			for _, u := range units {
				if u.Meter != nil && u.Series != nil {
					u.Series.Append(now, u.Meter.NPI(now))
				}
			}
		})
	}
	// Cross-domain traffic waits in the mailboxes until the next grid
	// cycle.
	if nd > 1 {
		k.Every(plan.Lookahead, s.exchange)
	}
	return s
}

// unitDeps are the shared-state dependencies of buildUnit: the config
// plus the owning domain's transaction pool and ID counter, so each
// domain allocates and IDs transactions without cross-domain sharing.
type unitDeps struct {
	cfg    Config
	pool   *txn.Pool
	nextID *uint64
}

// buildUnit assembles one DMA with its source, meter and adapter. idx is
// the unit's global spec index — it becomes txn.Transaction.Source and
// the unit's address-region selector, so it must be spec order even when
// domains build disjoint subsets.
func buildUnit(b unitDeps, idx int, spec DMASpec, port *noc.Port, rng *sim.Rand, burst uint32) *Unit {
	cfg := b.cfg
	src := spec.Source
	if src.ReqSize == 0 {
		src.ReqSize = burst
	}
	window := spec.Window
	if window <= 0 {
		window = defaultWindow(src.Kind)
	}
	engine := dma.New(dma.Config{
		Name:   spec.Label(),
		Core:   spec.Core,
		Class:  spec.Class,
		Window: window,
		Pool:   b.pool,
	}, idx, b.nextID, port, cfg.NoC.HopLatency)

	region := traffic.Region{
		Base: txn.Addr(uint64(idx) * regionBytes),
		Size: regionBytes,
	}
	framePeriod := cfg.FramePeriod()
	bpc := cfg.ScaledBps(src.RateBps) // bytes per cycle at this rate
	meterWindow := 8 * cfg.AdaptInterval

	u := &Unit{Spec: spec, Engine: engine}
	switch src.Kind {
	case SrcFrame:
		bytesPerFrame := roundTo(bpc*float64(framePeriod), src.ReqSize)
		fs := traffic.NewFrameSource(spec.Label(), engine, rng, region,
			bytesPerFrame, framePeriod, src.ReqSize, src.ReadFrac, src.RefFactor)
		fs.StartOffset = sim.Cycle(src.StartOffsetFrac * float64(framePeriod))
		u.Source = fs
		u.Meter = meter.NewFrameProgressMeter(framePeriod, src.RefFactor, fs.Progress)

	case SrcDisplay:
		bufBytes := bufferBytes(cfg, src, bpc)
		ds := traffic.NewDisplaySource(spec.Label(), engine, region, bpc, bufBytes, src.ReqSize)
		u.Source = ds
		u.Meter = meter.NewOccupancyMeter(bpc, meterWindow, bufBytes, false, ds.OccupancyAt)
		// The frame-rate baseline treats a draining real-time buffer as an
		// urgent media core. The probe integrates to now+1 — the same point
		// the source's own tick would have reached had it run this cycle —
		// so the answer is identical whether or not the active-ticker list
		// skipped the source.
		engine.SetUrgentProbe(func(now sim.Cycle) bool { return ds.OccupancyAt(now+1) < 0.55 })

	case SrcCamera:
		bufBytes := bufferBytes(cfg, src, bpc)
		cs := traffic.NewCameraSource(spec.Label(), engine, region, bpc, bufBytes, src.ReqSize)
		u.Source = cs
		u.Meter = meter.NewOccupancyMeter(bpc, meterWindow, bufBytes, true, cs.OccupancyAt)
		engine.SetUrgentProbe(func(now sim.Cycle) bool { return cs.OccupancyAt(now+1) > 0.45 })

	case SrcSporadic:
		meanGap := float64(src.ReqSize) / bpc
		ss := traffic.NewSporadicSource(spec.Label(), engine, rng, region,
			meanGap, src.ReqSize, src.ReadFrac)
		u.Source = ss
		limit := src.LatencyLimit
		if limit == 0 {
			limit = 500
		}
		lm := meter.NewLatencyMeter(limit, 0.25)
		engine.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
			lm.Observe(t.Latency())
		})
		u.Meter = lm

	case SrcRate:
		rs := traffic.NewRateSource(spec.Label(), engine, rng, region,
			bpc, src.ReqSize, src.BurstReqs, src.ReadFrac)
		u.Source = rs
		// Bandwidth meters average over a longer window so bulk-transfer
		// lumpiness does not read as QoS noise.
		bm := meter.NewBandwidthMeter(bpc, 2*meterWindow)
		engine.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
			bm.ObserveBytes(now, int(t.Size))
		})
		u.Meter = bm

	case SrcChunk:
		period, deadline := chunkTiming(src, framePeriod)
		chunkBytes := roundTo(bpc*float64(period), src.ReqSize)
		// The progress probe is wired after the source exists; the meter
		// tolerates a nil probe in the interim.
		cm := meter.NewChunkMeter(deadline, nil)
		csrc := traffic.NewChunkSource(spec.Label(), engine, rng, region,
			chunkBytes, period, src.ReqSize, src.ReadFrac, cm)
		csrc.Scatter = src.Scatter
		cm.SetProgress(csrc.ChunkProgress)
		csrc.StartOffset = sim.Cycle(src.StartOffsetFrac * float64(framePeriod))
		u.Source = csrc
		u.Meter = cm

	case SrcCPU:
		locality := src.Locality
		if locality == 0 {
			locality = 0.5
		}
		u.Source = traffic.NewCPUSource(spec.Label(), engine, rng, region,
			bpc, src.ReqSize, src.ReadFrac, locality)
		u.Meter = nil // the CPU has no QoS target in this use case
	}

	if u.Meter != nil {
		u.Series = &stats.Series{Name: spec.Label()}
		lut := adapt.DefaultLUT(cfg.PriorityBits)
		if len(spec.LUTBounds) > 0 {
			lut = adapt.NewLUT(spec.LUTBounds)
		}
		u.Adapter = adapt.New(spec.Label(), u.Meter, lut, engine, cfg.AdaptInterval)
		u.Adapter.SetEnabled(cfg.SARAEnabled())
	}
	return u
}

// bufferBytes sizes a display/camera buffer: either BufSeconds of traffic
// (scaled) or a default of 16 adaptation intervals.
func bufferBytes(cfg Config, src SourceSpec, bpc float64) float64 {
	var bufCycles float64
	if src.BufSeconds > 0 {
		bufCycles = float64(cfg.DRAM.CyclesFromSeconds(src.BufSeconds / float64(cfg.ScaleDiv)))
	} else {
		bufCycles = 16 * float64(cfg.AdaptInterval)
	}
	buf := bpc * bufCycles
	min := 8 * float64(src.ReqSize)
	if buf < min {
		buf = min
	}
	return buf
}

func defaultWindow(k SourceKind) int {
	switch k {
	case SrcFrame:
		return 16
	case SrcDisplay, SrcCamera:
		return 8
	case SrcSporadic:
		return 4
	case SrcRate:
		return 8
	case SrcChunk:
		return 8
	case SrcCPU:
		return 8
	}
	return 8
}

// roundTo rounds v up to a whole number of reqSize units (at least one).
func roundTo(v float64, reqSize uint32) uint64 {
	n := uint64(math.Ceil(v / float64(reqSize)))
	if n == 0 {
		n = 1
	}
	return n * uint64(reqSize)
}

// --- accessors and run control ---

// Kernel exposes the System's simulation kernel; tests drive it
// directly.
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// DRAM exposes the System's device model.
func (s *System) DRAM() *dram.DRAM { return s.dram }

// Controllers exposes the per-channel memory controllers, in channel
// order.
func (s *System) Controllers() []*memctrl.Controller { return s.ctrls }

// Routers exposes the NoC routers in tick order, per domain in domain
// order: aggregation routers first ("media", "system"), then the root,
// then — with several domains — the channel ingress router. The
// equivalence tests compare their statistics across kernel modes.
func (s *System) Routers() []*noc.Router {
	var out []*noc.Router
	for _, dom := range s.domains {
		out = append(out, dom.routers()...)
	}
	return out
}

// Domains reports the number of domains: 1 on the serial System, the
// channel count on a partitioned System.
func (s *System) Domains() int { return len(s.domains) }

// DRAMStats snapshots the per-channel DRAM counters.
func (s *System) DRAMStats() dram.Stats { return s.dram.Stats() }

// RowHitRate reports the device-wide row-buffer hit rate.
func (s *System) RowHitRate() float64 { return s.DRAMStats().RowHitRate() }

// RefreshDuty reports the fraction of rank-cycles up to now spent in a
// tRFC refresh blackout.
func (s *System) RefreshDuty(now sim.Cycle) float64 {
	return dram.RefreshDutyOf(s.cfg.DRAM, s.DRAMStats(), now)
}

// BandwidthOverWindowGBps reports bytes moved since the before snapshot
// divided by the window length, in GB/s.
func (s *System) BandwidthOverWindowGBps(before dram.Stats, from, to sim.Cycle) float64 {
	return dram.BandwidthOverWindowOf(s.cfg.DRAM, before, s.DRAMStats(), from, to)
}

// SkippedCycles reports how many cycles idle skipping fast-forwarded
// over.
func (s *System) SkippedCycles() uint64 { return s.kernel.SkippedCycles() }

// Units exposes every assembled DMA.
func (s *System) Units() []*Unit { return s.units }

// Unit looks a unit up by its full label ("Display", "Rotator/rd", ...).
func (s *System) Unit(label string) (*Unit, bool) {
	u, ok := s.byLabel[label]
	return u, ok
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Now reports the current cycle.
func (s *System) Now() sim.Cycle { return s.kernel.Now() }

// Run advances the simulation by n cycles.
func (s *System) Run(n sim.Cycle) { s.kernel.RunFor(n) }

// RunFrames advances the simulation by k frame periods. It panics with
// Config.FrameCycles' error on a negative k or an overflowing horizon.
func (s *System) RunFrames(k int) {
	n, err := s.cfg.FrameCycles(k)
	if err != nil {
		panic(err)
	}
	s.Run(n)
}

// RunChecked advances the simulation by n cycles with failures contained:
// panics raised anywhere in the system surface as a *sim.PanicError, and
// any watchdog installed with SetWatchdog bounds the run (see
// sim.Kernel.RunChecked).
func (s *System) RunChecked(n sim.Cycle) error { return s.kernel.RunForChecked(n) }

// RunFramesChecked is RunChecked over k frame periods. A k that
// Config.FrameCycles refuses returns its error and runs nothing.
func (s *System) RunFramesChecked(k int) error {
	n, err := s.cfg.FrameCycles(k)
	if err != nil {
		return err
	}
	return s.RunChecked(n)
}

// SetWatchdog installs wd, defaulting its Outstanding and Progress
// probes to the system-level ones (in-flight transactions and completed
// transactions) when unset, so callers only pick budgets, and hands wd
// to the kernel, with its parked-deadlock check and per-idler dump.
func (s *System) SetWatchdog(wd *sim.Watchdog) {
	if wd != nil {
		if wd.Outstanding == nil {
			wd.Outstanding = s.Outstanding
		}
		if wd.Progress == nil {
			wd.Progress = s.CompletedTransactions
		}
	}
	s.kernel.SetWatchdog(wd)
}

// Outstanding counts transactions that are in flight somewhere in the
// system — generated but not yet completed, including requests still in
// DMA pending queues. A fully parked wake wheel with Outstanding > 0 is
// a deadlock (a component dropped a transaction); the kernel watchdog
// uses this probe to detect it.
func (s *System) Outstanding() uint64 {
	var n uint64
	for _, u := range s.units {
		st := u.Engine.Stats()
		n += st.Generated - st.Completed
	}
	return n
}

// CompletedTransactions sums completions across every DMA — the default
// forward-progress counter for the watchdog.
func (s *System) CompletedTransactions() uint64 {
	var n uint64
	for _, u := range s.units {
		n += u.Engine.Stats().Completed
	}
	return n
}

// MinNPIByCore reports, for every metered core, the minimum NPI sample at
// or after cycle from, taking the worst DMA of each core. This is the
// "did the core ever fall below target" statistic behind Figs. 5, 6 and 9.
func (s *System) MinNPIByCore(from sim.Cycle) map[string]float64 {
	out := make(map[string]float64)
	for _, u := range s.units {
		if u.Series == nil {
			continue
		}
		min := math.Inf(1)
		for i, c := range u.Series.Cycles {
			if c >= from && u.Series.Values[i] < min {
				min = u.Series.Values[i]
			}
		}
		if math.IsInf(min, 1) {
			continue
		}
		if cur, ok := out[u.Spec.Core]; !ok || min < cur {
			out[u.Spec.Core] = min
		}
	}
	return out
}

// CriticalCores lists the distinct core names marked Critical, in spec
// order.
func (s *System) CriticalCores() []string {
	var names []string
	seen := make(map[string]bool)
	for _, u := range s.units {
		if u.Spec.Critical && !seen[u.Spec.Core] {
			seen[u.Spec.Core] = true
			names = append(names, u.Spec.Core)
		}
	}
	return names
}

// PriorityHistogramByCore merges the adapter time-at-level histograms of
// all DMAs belonging to core (Fig. 7).
func (s *System) PriorityHistogramByCore(core string) *stats.LevelHistogram {
	merged := stats.NewLevelHistogram(1 << s.cfg.PriorityBits)
	for _, u := range s.units {
		if u.Spec.Core != core || u.Adapter == nil {
			continue
		}
		h := u.Adapter.Histogram()
		for lvl := 0; lvl < h.Levels(); lvl++ {
			frac := h.Fraction(lvl)
			if frac > 0 {
				merged.Add(lvl, uint64(frac*1e6))
			}
		}
	}
	return merged
}
