package analysis_test

import (
	"testing"

	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

func fastCfg(opts ...config.Option) core.Config {
	return config.Camcorder(config.CaseA, append([]config.Option{config.WithScaleDiv(512)}, opts...)...)
}

// toggleSink is a noc.Sink whose acceptance the test flips by hand.
type toggleSink struct {
	got  int
	full bool
}

func (s *toggleSink) CanAccept(*txn.Transaction) bool { return !s.full }
func (s *toggleSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.got++
}

// TestEdgeTapWindowedGolden drives a bare two-deep router through the
// exact edge path the analyzer's backpressure numbers come from and
// checks every window against hand-computed grant/credit/full-pop/stall
// counts.
func TestEdgeTapWindowedGolden(t *testing.T) {
	t.Parallel()
	sink := &toggleSink{}
	p := noc.Params{PortDepth: 2, HopLatency: 0, RespLatency: 12, Arb: noc.ArbFCFS}
	r := noc.NewRouter("g", p, 1, []noc.Sink{sink}, nil)

	tap := analysis.TapRouters("g")
	r.SetTrace(tap.Trace())
	c := tap.Counts("g")
	if c == nil {
		t.Fatal("tapped router has no counter cell")
	}
	if tap.Counts("other") != nil {
		t.Fatal("untapped name has a counter cell")
	}

	// Window 1: fill the port (depth 2), then drain it. The first pop
	// leaves a full FIFO, so it is the window's one backpressure release.
	r.Port(0).Push(&txn.Transaction{ID: 1}, 0, 0)
	r.Port(0).Push(&txn.Transaction{ID: 2}, 0, 0)
	r.Tick(1)
	r.Tick(2)
	want := analysis.EdgeCounts{Grants: 2, Credits: 2, FullPops: 1, Stalls: 0}
	if *c != want {
		t.Fatalf("window 1 counts %+v, want %+v", *c, want)
	}
	if got := r.Forwarded(); got != 2 {
		t.Fatalf("router forwarded %d, want 2", got)
	}
	tap.Reset()

	// Window 2: a ready head blocked on a full sink stalls the switch
	// every cycle; unblocking grants it (a pop of a non-full FIFO, so a
	// credit but no backpressure release).
	sink.full = true
	r.Port(0).Push(&txn.Transaction{ID: 3}, 3, 3)
	r.Tick(3)
	r.Tick(4)
	want = analysis.EdgeCounts{Stalls: 2}
	if *c != want {
		t.Fatalf("window 2 (blocked) counts %+v, want %+v", *c, want)
	}
	sink.full = false
	r.Tick(5)
	want = analysis.EdgeCounts{Grants: 1, Credits: 1, FullPops: 0, Stalls: 2}
	if *c != want {
		t.Fatalf("window 2 (drained) counts %+v, want %+v", *c, want)
	}
	if got := r.Stalls(); got != 2 {
		t.Fatalf("tap stalls diverge from router counter: tap %d, router %d", c.Stalls, got)
	}
	if sink.got != 3 {
		t.Fatalf("sink accepted %d packets, want 3", sink.got)
	}
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
// optionally with an edge-layer analyzer subscribed alongside them.
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
		az := analysis.Attach(sys, analysis.Options{Window: 2048, Edges: true})
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
// edge-layer analyzer attached, with the test trace probes subscribed in
// both runs (so it also proves a test probe and the analyzer coexist on
// the same edges). Every behavioral event stream and every aggregate must
// be bit-identical.
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
// the report's per-router edge totals and series shape against test
// trace probes running alongside.
func TestAnalyzerReportAgainstLegacyTrace(t *testing.T) {
	t.Parallel()
	grants := map[string]uint64{}
	fullPops := map[string]uint64{}
	sys := core.Build(fastCfg())
	sys.Probe(core.Probes{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			grants[name]++
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			if wasFull {
				fullPops[name]++
			}
		},
	})
	az := analysis.Attach(sys, analysis.Options{Window: 2048, Edges: true})
	sys.RunFrames(1)
	az.Detach()
	rep := az.Report()

	if rep.Samples == 0 || !rep.Edges {
		t.Fatalf("report: samples %d, edges %v; want sampled edge-layer report", rep.Samples, rep.Edges)
	}
	if len(rep.Routers) == 0 || len(rep.Engines) == 0 || len(rep.Channels) == 0 {
		t.Fatalf("report missing sections: %d routers, %d engines, %d channels",
			len(rep.Routers), len(rep.Engines), len(rep.Channels))
	}
	for _, r := range rep.Routers {
		// The analyzer's totals only cover closed windows; events after
		// the last window boundary are in neither, so compare <=, and
		// exactly when the run length is a window multiple.
		if r.Grants > grants[r.Name] {
			t.Errorf("router %s: analyzer grants %d > probe trace %d", r.Name, r.Grants, grants[r.Name])
		}
		if r.FullPops > fullPops[r.Name] {
			t.Errorf("router %s: analyzer full pops %d > probe trace %d", r.Name, r.FullPops, fullPops[r.Name])
		}
		if r.StallFrac.Len() != rep.Samples || r.Backpressure.Len() != rep.Samples {
			t.Errorf("router %s: series lengths %d/%d, want %d samples",
				r.Name, r.StallFrac.Len(), r.Backpressure.Len(), rep.Samples)
		}
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
	// Whole-run grant totals must match exactly once the final partial
	// window is accounted: sum the analyzer's windows plus the probe
	// trace restricted to closed windows is overkill — instead check
	// that at least one router saw traffic through both layers.
	var sawTraffic bool
	for _, r := range rep.Routers {
		if r.Grants > 0 && grants[r.Name] > 0 {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Fatal("no router saw traffic through both the analyzer and the probe trace")
	}
}

// TestAnalyzerSamplingAllocations guards the enabled sampling path: with
// a sampling-only analyzer attached (no edges, no publisher), a window's
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
