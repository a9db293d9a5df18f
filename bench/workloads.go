package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/exp"
	"sara/internal/memctrl"
	"sara/internal/sim"
)

// segmentsPerFrame is how many closed-loop System.Run calls one
// simulated frame is cut into.
const segmentsPerFrame = 8

// goldenSeeds is how many simulation seeds golden.json holds digests
// for. Consecutive rounds of a run step through them from the seed the
// run was given (see inputSeed), so every round's outputs are checked and
// a run's medians cover most of the inputs whatever its seed.
const goldenSeeds = 16

// inputSeed maps a benchmark seed onto a simulation seed in
// 1..goldenSeeds: seed 1 is simulation seed 1, seed 17 is 1 again.
func inputSeed(s uint64) uint64 { return (s+goldenSeeds-1)%goldenSeeds + 1 }

// workload is one set of inputs the benchmark runs. Its round function
// runs one round: set-up, then size units of measured work (frames for a
// single run, cell seeds for the sweep). sizedDigest says the round's
// digest depends on size, so golden.json applies at the default size only.
type workload struct {
	name        string
	size        int
	sizedDigest bool
	round       func(r *round)
}

var workloads = []workload{
	{name: "camcorder-a", size: 40, sizedDigest: true, round: singleRun{
		config: func(seed uint64) core.Config {
			return config.Camcorder(config.CaseA, config.WithPolicy(memctrl.QoS), config.WithSeed(seed))
		},
		build: core.Build,
	}.round},
	{name: "saturated-4x", size: 4, sizedDigest: true, round: singleRun{
		config: func(seed uint64) core.Config { return config.ScaledSaturated(4, config.WithSeed(seed)) },
		build:  core.Build,
	}.round},
	{name: "saturated-4x-domains", size: 3, sizedDigest: true, round: singleRun{
		config: func(seed uint64) core.Config { return config.ScaledSaturated(4, config.WithSeed(seed)) },
		// The partitioned topology at any worker count, so the outputs
		// (and the golden digests) do not depend on the host's CPUs.
		build: func(cfg core.Config) *core.System {
			return core.BuildParallel(cfg, min(2, runtime.GOMAXPROCS(0)))
		},
	}.round},
	{name: "sweep-analyzed", size: sweepSeedsPerRound, round: sweepRound},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundResult is what one round measured.
type roundResult struct {
	traced     bool
	setup      time.Duration
	build      time.Duration // per built system
	segments   []float64     // ms per closed-loop call
	measured   time.Duration // sum of the segment spans
	cycles     float64       // simulated cycles in the measured phase
	frames     float64
	allocBytes float64
	liveHeap   float64 // bytes the round's systems hold after a full GC
	cpuUtil    float64
	gcCPUFrac  float64
	selfFrac   float64 // harness time between simulator calls ÷ measured phase
	attempted  int
	failed     int
	digests    []seedDigest
	model      map[string]float64 // simulated counts for the per-layer table
	err        error
}

// seedDigest is the digest of a round's outputs at one simulation seed.
type seedDigest struct {
	seed   uint64
	digest string
}

// round is the context a workload's round function runs in.
type round struct {
	*tracer
	seed    uint64 // the run's benchmark seed
	idx     int    // the round's index in the run
	size    int
	profile string // CPU profile path for a traced round
	res     roundResult

	baseHeap float64
	rt0      runtimeSnap
	measure  int // span id of the measured phase
	prof     *os.File
}

// beginMeasure starts the measured phase: runtime counters, CPU time,
// in a traced round the CPU profile, and last the "measure" span that
// groups the phase's calls.
func (r *round) beginMeasure() {
	if r.profile != "" {
		f, err := os.Create(r.profile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			r.res.err = fmt.Errorf("cpu profile: %w", err)
		}
		r.prof = f
	}
	r.rt0 = readRuntime()
	r.measure = r.begin("measure")
}

// endMeasure closes the measured phase over the given simulated cycles
// and frames. The caller must still hold the round's systems: the live
// heap is read after a full GC here.
func (r *round) endMeasure(cycles, frames float64) {
	wall := r.end(r.measure)
	rt := readRuntime()
	if r.prof != nil {
		pprof.StopCPUProfile()
		if err := r.prof.Close(); err != nil && r.res.err == nil {
			r.res.err = fmt.Errorf("cpu profile: %w", err)
		}
	}
	r.res.cycles, r.res.frames = cycles, frames
	r.res.allocBytes = rt.allocBytes - r.rt0.allocBytes
	if wall > 0 {
		r.res.cpuUtil = float64(rt.cpu-r.rt0.cpu) / float64(wall) / float64(runtime.GOMAXPROCS(0))
		// The harness's own share of the phase: the time the measure
		// span spends outside the simulator calls it groups.
		r.res.selfFrac = float64(selfTimes(r.spans[r.measure:])[0]) / float64(wall)
	}
	if d := rt.totalCPU - r.rt0.totalCPU; d > 0 {
		r.res.gcCPUFrac = (rt.gcCPU - r.rt0.gcCPU) / d
	}
	runtime.GC()
	r.res.liveHeap = liveHeap() - r.baseHeap
}

// segment times one closed-loop call.
func (r *round) segment(name string, call func() error) error {
	id := r.begin(name)
	err := call()
	d := r.end(id)
	r.res.measured += d
	r.res.segments = append(r.res.segments, float64(d)/1e6)
	return err
}

// runRound runs one round of w with its own trace id.
func runRound(w workload, t *tracer, idx int, seed uint64, size int, profile string) roundResult {
	// Two collections: after a single one the previous round's system
	// was measured still live, and it would count in this round's base.
	runtime.GC()
	runtime.GC()
	t.trace = idx
	r := &round{tracer: t, seed: seed, idx: idx, size: size, profile: profile, baseHeap: liveHeap()}
	r.res.traced = profile != ""
	r.res.model = map[string]float64{}
	root := r.begin("round")
	w.round(r)
	r.end(root)
	return r.res
}

// singleRun is one system driven through a warm-up frame and then
// size frames of FramePeriod/8 segments.
type singleRun struct {
	config func(seed uint64) core.Config
	build  func(core.Config) *core.System
}

func (w singleRun) round(r *round) {
	seed := inputSeed(r.seed + uint64(r.idx))
	setup := r.begin("setup")
	id := r.begin("config")
	cfg := w.config(seed)
	r.end(id)
	id = r.begin("build")
	sys := w.build(cfg)
	r.res.build = r.end(id)
	id = r.begin("warmup")
	err := sys.RunFramesChecked(1)
	r.end(id)
	r.res.setup = r.end(setup)

	seg := cfg.FramePeriod() / segmentsPerFrame
	n := r.size * segmentsPerFrame
	r.res.attempted = n
	if err != nil {
		r.res.failed, r.res.err = n, err
		return
	}
	from := sys.Now()
	before := snapModel(sys)
	r.res.segments = make([]float64, 0, n)
	r.spans = slices.Grow(r.spans, n+8) // the measured loop must not allocate
	var pending float64
	r.beginMeasure()
	done := 0
	for ; done < n; done++ {
		if err = r.segment("segment", func() error { return sys.RunChecked(seg) }); err != nil {
			break
		}
		for _, c := range sys.Controllers() {
			pending += float64(c.Pending())
		}
	}
	cycles := float64(done) * float64(seg)
	r.endMeasure(cycles, cycles/float64(cfg.FramePeriod()))
	if err != nil {
		r.res.failed, r.res.err = n-done, err
		return
	}

	id = r.begin("stats")
	r.res.digests = []seedDigest{{seed, digestSystem(sys)}}
	after := snapModel(sys)
	r.end(id)
	singleModel(r.res.model, sys, from, before, after, pending/float64(n), cycles, r.res.frames)
}

// modelSnap is a system's cumulative counters at one cycle.
type modelSnap struct {
	dram    dram.ChannelStats
	ctrl    memctrl.Stats
	fwd     uint64
	stalls  uint64
	eng     dma.Stats
	engines int
	skipped uint64
}

func snapModel(sys *core.System) modelSnap {
	var m modelSnap
	m.dram = sys.DRAMStats().Totals()
	for _, c := range sys.Controllers() {
		s := c.Stats()
		m.ctrl.Served += s.Served
		m.ctrl.RowHits += s.RowHits
		m.ctrl.RowConflicts += s.RowConflicts
		m.ctrl.AgedServes += s.AgedServes
		m.ctrl.Refreshes += s.Refreshes
	}
	for _, rt := range sys.Routers() {
		m.fwd += rt.Forwarded()
		m.stalls += rt.Stalls()
	}
	for _, u := range sys.Units() {
		s := u.Engine.Stats()
		m.eng.Generated += s.Generated
		m.eng.Completed += s.Completed
		m.eng.TotalLatency += s.TotalLatency
		m.eng.InjectStalls += s.InjectStalls
		m.engines++
	}
	m.skipped = sys.SkippedCycles()
	return m
}

// singleModel fills the simulated per-layer counts of sys's measured
// window: cycles simulated cycles from cycle from, between snapshots b
// and a.
func singleModel(m map[string]float64, sys *core.System, from sim.Cycle, b, a modelSnap, pendingMean, cycles, frames float64) {
	served := float64(a.ctrl.Served - b.ctrl.Served)
	grants := float64(a.fwd - b.fwd)
	stalls := float64(a.stalls - b.stalls)
	cas := float64(a.dram.ReadBursts + a.dram.WriteBursts - b.dram.ReadBursts - b.dram.WriteBursts)
	bytes := float64(a.dram.BytesMoved - b.dram.BytesMoved)
	completed := float64(a.eng.Completed - b.eng.Completed)

	m["sim.skipped_frac"] = float64(a.skipped-b.skipped) / cycles
	m["sim.executed_cycles_per_frame"] = (cycles - float64(a.skipped-b.skipped)) / frames
	m["memctrl.pending_mean"] = pendingMean
	m["memctrl.row_hit_frac"] = ratio(float64(a.ctrl.RowHits-b.ctrl.RowHits), served)
	m["memctrl.row_conflict_frac"] = ratio(float64(a.ctrl.RowConflicts-b.ctrl.RowConflicts), served)
	m["memctrl.aged_frac"] = ratio(float64(a.ctrl.AgedServes-b.ctrl.AgedServes), served)
	m["memctrl.refreshes_per_mcycle"] = float64(a.ctrl.Refreshes-b.ctrl.Refreshes) / cycles * 1e6
	m["noc.grants_per_kcycle"] = grants / cycles * 1e3
	m["noc.grant_frac"] = ratio(grants, grants+stalls)
	m["dram.bytes_per_cycle"] = bytes / cycles
	m["dram.cas_per_activate"] = ratio(cas, float64(a.dram.Activates-b.dram.Activates))
	m["dram.gbps"] = bytes / (cycles / sys.Config().DRAM.ClockHz()) / 1e9
	m["dma.mean_latency_cycles"] = ratio(float64(a.eng.TotalLatency-b.eng.TotalLatency), completed)
	m["dma.inject_stall_frac"] = float64(a.eng.InjectStalls-b.eng.InjectStalls) / (cycles * float64(a.engines))
	m["traffic.generated_per_kcycle"] = float64(a.eng.Generated-b.eng.Generated) / cycles * 1e3
	m["meter.worst_min_npi"] = worstNPI(sys.MinNPIByCore(from), sys.CriticalCores())
	m["adapt.high_prio_frac"] = highPrioFrac(sys)
}

// highPrioFrac is the share of adapter time spent at the top two
// priority levels, over every adapter of the system.
func highPrioFrac(sys *core.System) float64 {
	var high, total float64
	for _, u := range sys.Units() {
		if u.Adapter == nil {
			continue
		}
		h := u.Adapter.Histogram()
		w, l := float64(h.Total()), h.Levels()
		high += w * (h.Fraction(l-1) + h.Fraction(l-2))
		total += w
	}
	return ratio(high, total)
}

// worstNPI is the lowest minimum NPI over the critical cores.
func worstNPI(minNPI map[string]float64, critical []string) float64 {
	worst := math.Inf(1)
	for _, c := range critical {
		if v, ok := minNPI[c]; ok && v < worst {
			worst = v
		}
	}
	if math.IsInf(worst, 1) {
		return 0
	}
	return worst
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sweepSeedsPerRound is how many cell seeds one sweep round covers.
const sweepSeedsPerRound = 8

// sweepRound runs the paper-regeneration path the way the figure helpers
// call it: one exp.RunCells call per test case and cell seed over all six
// policies (the shape of exp's runPolicies), analyzed and with refresh. A
// round covers r.size consecutive cell seeds. Its set-up builds the config
// and the system of every cell of the round once, before the grid.
func sweepRound(r *round) {
	opt := exp.Options{Workers: runtime.GOMAXPROCS(0), Analyze: true, Refresh: true}
	seeds := make([]uint64, r.size)
	var calls [][]exp.Cell
	for k := range seeds {
		seeds[k] = inputSeed(r.seed + uint64(r.idx*r.size+k))
		for _, tc := range []config.Case{config.CaseA, config.CaseB} {
			var cells []exp.Cell
			for _, p := range memctrl.AllPolicies() {
				cells = append(cells, exp.Cell{Case: tc, Policy: p, Seed: seeds[k]})
			}
			calls = append(calls, cells)
		}
	}
	cells := slices.Concat(calls...)

	setup := r.begin("setup")
	id := r.begin("config")
	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.Config(opt)
	}
	r.end(id)
	id = r.begin("build")
	for _, cfg := range cfgs {
		core.Build(cfg)
	}
	r.res.build = r.end(id) / time.Duration(len(cfgs))
	r.res.setup = r.end(setup)

	var cycles float64
	for _, cfg := range cfgs {
		cycles += float64(cfg.FramePeriod())
	}
	r.res.attempted = len(cells)
	runs := make([]exp.PolicyRun, 0, len(cells))
	r.beginMeasure()
	for _, call := range calls {
		err := r.segment("grid", func() error {
			out, err := exp.RunCells(call, opt)
			runs = append(runs, out...)
			return err
		})
		if err != nil && r.res.err == nil {
			r.res.err = err
		}
	}
	r.endMeasure(cycles, float64(len(cells)))

	id = r.begin("stats")
	var samples, gbps, bytes, refs, worst, hit float64
	for i, run := range runs {
		switch {
		case run.Err != nil:
			r.res.failed++
			if r.res.err == nil {
				r.res.err = run.Err
			}
		case run.Analysis == nil || run.Analysis.Samples == 0:
			r.res.failed++
			if r.res.err == nil {
				r.res.err = fmt.Errorf("cell %s/%s: no analysis report", run.Case, run.Policy)
			}
		default:
			samples += float64(run.Analysis.Samples)
		}
		gbps += run.BandwidthGBps
		bytes += run.BandwidthGBps * 1e9 * float64(cfgs[i].FramePeriod()) / cfgs[i].DRAM.ClockHz()
		refs += float64(run.Refreshes)
		hit += run.RowHitRate
		worst += worstNPI(run.MinNPI, run.CriticalCores)
	}
	// One digest per cell seed, over both cases' runs at that seed.
	perSeed := len(runs) / len(seeds)
	for k, seed := range seeds {
		r.res.digests = append(r.res.digests, seedDigest{seed, digestRuns(runs[k*perSeed : (k+1)*perSeed])})
	}
	r.end(id)

	n := float64(len(runs))
	m := r.res.model
	m["analysis.samples"] = samples / n
	m["dram.gbps"] = gbps / n
	m["dram.bytes_per_cycle"] = bytes / cycles
	m["dram.cas_per_activate"] = ratio(1, 1-hit/n)
	m["memctrl.refreshes_per_mcycle"] = refs / cycles * 1e6
	m["meter.worst_min_npi"] = worst / n
	m["exp.cells_per_s"] = n / r.res.measured.Seconds()
}
