package analysis_test

import (
	"testing"

	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/sim"
)

func fastCfg(opts ...config.Option) core.Config {
	return config.Camcorder(config.CaseA, append([]config.Option{config.WithScaleDiv(512)}, opts...)...)
}

// Compact event records for the behavior differential. Stall events are
// deliberately absent: stall accrual is batched accounting whose event
// chunking depends on when settles run (the analyzer's sampler adds
// settle points), so only its total is comparable, via Router.Stalls.
type grantEv struct {
	name      string
	now       sim.Cycle
	port, out int
	id        uint64
}
type creditEv struct {
	name    string
	now     sim.Cycle
	port    int
	wasFull bool
}
type injectEv struct {
	now    sim.Cycle
	source int
	id     uint64
	addr   uint64
}
type cmdEv struct {
	ch   int
	now  sim.Cycle
	id   uint64
	kind byte
}

type traceLog struct {
	grants  []grantEv
	credits []creditEv
	injects []injectEv
	cmds    []cmdEv
}

type runOutcome struct {
	log       *traceLog
	completed uint64
	bandwidth float64
	minNPI    map[string]float64
	stalls    map[string]uint64
	forwarded map[string]uint64
}

// tracedRun runs one frame of case A with test trace probes subscribed,
// optionally with an analyzer sampling alongside them.
func tracedRun(analyze bool) runOutcome {
	lg := &traceLog{}
	sys := core.Build(fastCfg())
	sys.Probe(core.Probes{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			lg.grants = append(lg.grants, grantEv{name, now, port, out, id})
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			lg.credits = append(lg.credits, creditEv{name, now, port, wasFull})
		},
		Inject: func(now sim.Cycle, source int, id uint64, addr uint64) {
			lg.injects = append(lg.injects, injectEv{now, source, id, addr})
		},
		Command: func(ch int, now sim.Cycle, id uint64, kind byte) {
			lg.cmds = append(lg.cmds, cmdEv{ch, now, id, kind})
		},
	})
	if analyze {
		az := analysis.Attach(sys, analysis.Options{Window: 2048})
		defer az.Detach()
	}
	sys.RunFrames(1)

	out := runOutcome{
		log:       lg,
		completed: sys.CompletedTransactions(),
		bandwidth: sys.DRAM().AverageBandwidthGBps(sys.Now()),
		minNPI:    sys.MinNPIByCore(0),
		stalls:    map[string]uint64{},
		forwarded: map[string]uint64{},
	}
	sys.Kernel().Settle()
	for _, r := range sys.Routers() {
		out.stalls[r.Name()] = r.Stalls()
		out.forwarded[r.Name()] = r.Forwarded()
	}
	return out
}

// TestAnalyzerDoesNotChangeBehavior is the enabled-vs-disabled
// differential: the same configuration runs once bare and once with an
// analyzer attached, with the test trace probes subscribed in both runs.
// The analyzer's sampler adds kernel events and settle points, so every
// behavioral event stream and every aggregate must still be
// bit-identical.
func TestAnalyzerDoesNotChangeBehavior(t *testing.T) {
	t.Parallel()
	bare := tracedRun(false)
	analyzed := tracedRun(true)

	if n, m := len(bare.log.grants), len(analyzed.log.grants); n != m {
		t.Fatalf("grant trace length %d vs %d", n, m)
	}
	for i := range bare.log.grants {
		if bare.log.grants[i] != analyzed.log.grants[i] {
			t.Fatalf("grant %d: %+v vs %+v", i, bare.log.grants[i], analyzed.log.grants[i])
		}
	}
	if n, m := len(bare.log.credits), len(analyzed.log.credits); n != m {
		t.Fatalf("credit trace length %d vs %d", n, m)
	}
	for i := range bare.log.credits {
		if bare.log.credits[i] != analyzed.log.credits[i] {
			t.Fatalf("credit %d: %+v vs %+v", i, bare.log.credits[i], analyzed.log.credits[i])
		}
	}
	if n, m := len(bare.log.injects), len(analyzed.log.injects); n != m {
		t.Fatalf("inject trace length %d vs %d", n, m)
	}
	for i := range bare.log.injects {
		if bare.log.injects[i] != analyzed.log.injects[i] {
			t.Fatalf("inject %d: %+v vs %+v", i, bare.log.injects[i], analyzed.log.injects[i])
		}
	}
	if n, m := len(bare.log.cmds), len(analyzed.log.cmds); n != m {
		t.Fatalf("command trace length %d vs %d", n, m)
	}
	for i := range bare.log.cmds {
		if bare.log.cmds[i] != analyzed.log.cmds[i] {
			t.Fatalf("command %d: %+v vs %+v", i, bare.log.cmds[i], analyzed.log.cmds[i])
		}
	}

	if bare.completed != analyzed.completed {
		t.Errorf("completed %d vs %d", bare.completed, analyzed.completed)
	}
	if bare.bandwidth != analyzed.bandwidth {
		t.Errorf("bandwidth %v vs %v", bare.bandwidth, analyzed.bandwidth)
	}
	for core, npi := range bare.minNPI {
		if got := analyzed.minNPI[core]; got != npi {
			t.Errorf("%s min NPI %v vs %v", core, npi, got)
		}
	}
	for name, n := range bare.stalls {
		if got := analyzed.stalls[name]; got != n {
			t.Errorf("%s stalls %d vs %d", name, n, got)
		}
	}
	for name, n := range bare.forwarded {
		if got := analyzed.forwarded[name]; got != n {
			t.Errorf("%s forwarded %d vs %d", name, n, got)
		}
	}
}

// TestAnalyzerReportAgainstLegacyTrace runs one analyzed frame and checks
// the report's per-router counter totals and series shape against test
// trace probes running alongside: a router's grants and full pops over
// the closed windows are exactly the probe-counted events before the
// last sample cycle.
func TestAnalyzerReportAgainstLegacyTrace(t *testing.T) {
	t.Parallel()
	grantAt := map[string][]sim.Cycle{}
	fullPopAt := map[string][]sim.Cycle{}
	sys := core.Build(fastCfg())
	sys.Probe(core.Probes{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			grantAt[name] = append(grantAt[name], now)
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			if wasFull {
				fullPopAt[name] = append(fullPopAt[name], now)
			}
		},
	})
	az := analysis.Attach(sys, analysis.Options{Window: 2048})
	sys.RunFrames(1)
	az.Detach()
	rep := az.Report()

	if rep.Samples == 0 {
		t.Fatal("report has no samples")
	}
	if len(rep.Routers) == 0 || len(rep.Engines) == 0 || len(rep.Channels) == 0 {
		t.Fatalf("report missing sections: %d routers, %d engines, %d channels",
			len(rep.Routers), len(rep.Engines), len(rep.Channels))
	}
	sysSamples := rep.System.WorstNPI.Len()
	if sysSamples != rep.Samples {
		t.Fatalf("system series has %d points, want %d", sysSamples, rep.Samples)
	}
	for i, cyc := range rep.System.WorstNPI.Cycles {
		if rep.System.Backpressure.Cycles[i] != cyc {
			t.Fatalf("system series sample cycles diverge at %d", i)
		}
	}
	// The sampler at cycle c runs before any ticker of c, so the closed
	// windows hold exactly the events of cycles before the last sample.
	lastSample := rep.System.WorstNPI.Cycles[sysSamples-1]
	before := func(at []sim.Cycle) (n uint64) {
		for _, c := range at {
			if c < lastSample {
				n++
			}
		}
		return n
	}
	var grants uint64
	for _, r := range rep.Routers {
		if want := before(grantAt[r.Name]); r.Grants != want {
			t.Errorf("router %s: analyzer grants %d, probe trace %d", r.Name, r.Grants, want)
		}
		if want := before(fullPopAt[r.Name]); r.FullPops != want {
			t.Errorf("router %s: analyzer full pops %d, probe trace %d", r.Name, r.FullPops, want)
		}
		if r.StallFrac.Len() != rep.Samples || r.Backpressure.Len() != rep.Samples {
			t.Errorf("router %s: series lengths %d/%d, want %d samples",
				r.Name, r.StallFrac.Len(), r.Backpressure.Len(), rep.Samples)
		}
		grants += r.Grants
	}
	if grants == 0 {
		t.Fatal("no router granted in a closed window")
	}
}

// TestAnalyzerSamplingAllocations guards the enabled sampling path: with
// an analyzer attached (no publisher), a window's
// sample must cost nothing beyond amortized series growth. The budget of
// 32 allocations per 1000-cycle window absorbs the occasional slice
// doubling across the analyzer's ~150 series; a per-event or per-sample
// allocation (map, closure, boxing) would blow far past it. It stays
// serial: AllocsPerRun counts every goroutine's allocations.
func TestAnalyzerSamplingAllocations(t *testing.T) {
	sys := core.Build(fastCfg())
	analysis.Attach(sys, analysis.Options{Window: 1000})
	sys.RunFrames(1) // warm up pools and series capacity

	allocs := testing.AllocsPerRun(50, func() {
		sys.Run(1000) // exactly one analyzer window per run
	})
	if allocs > 32 {
		t.Fatalf("analyzed steady state allocates %.1f times per window, want <= 32", allocs)
	}
}
