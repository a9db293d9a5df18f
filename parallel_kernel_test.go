package sara_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sara"
	"sara/internal/analysis"
	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/sim"
)

// The partitioned topology's equivalence contract: on a partitionable
// config, the idle-skipping run and the cycle-stepped reference
// (SetReference on the System's one kernel) produce bit-identical
// results — aggregate statistics, NPI series, and the full grant /
// credit / DRAM-command / injection / injection-wake traces, compared
// event by event in emission order.

// parSnapshot is everything one partitioned run exposes for comparison.
type parSnapshot struct {
	domains int

	grants  []tracedGrant
	credits []tracedCredit
	cmds    []tracedCmd
	injs    []tracedInj
	wakes   []tracedWake

	ctrls   []memctrl.Stats
	dram    []dram.ChannelStats
	engines []dma.Stats
	routers map[string][2]uint64
	npi     map[string]float64
	series  map[string][]float64
	skipped uint64
	now     sim.Cycle
}

// captureParallel builds cfg's partitioned System, on the stepped
// reference kernel when reference is set, drives it with drive, and
// snapshots every comparable surface.
func captureParallel(t *testing.T, cfg sara.Config, reference bool, drive func(*sara.System)) parSnapshot {
	t.Helper()
	var res parSnapshot
	sys := core.BuildParallel(cfg, 1)
	if sys.Domains() < 2 {
		t.Fatalf("BuildParallel fell back to the serial System")
	}
	sys.Probe(sara.Probes{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			res.grants = append(res.grants, tracedGrant{name, now, port, out, id})
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			res.credits = append(res.credits, tracedCredit{name, now, port, wasFull})
		},
		Command: func(ch int, now sim.Cycle, id uint64, kind byte) {
			res.cmds = append(res.cmds, tracedCmd{ch, now, id, kind})
		},
		Inject: func(now sim.Cycle, source int, id uint64, addr uint64) {
			res.injs = append(res.injs, tracedInj{now, source, id, addr})
		},
		Wake: func(source int, at sim.Cycle, cause byte) {
			res.wakes = append(res.wakes, tracedWake{source, at, cause})
		},
	})
	sys.Kernel().SetReference(reference)
	drive(sys)

	res.domains = sys.Domains()
	for _, c := range sys.Controllers() {
		res.ctrls = append(res.ctrls, c.Stats())
	}
	res.dram = append(res.dram, sys.DRAMStats().Channels...)
	res.routers = map[string][2]uint64{}
	for _, r := range sys.Routers() {
		res.routers[r.Name()] = [2]uint64{r.Forwarded(), r.Stalls()}
	}
	res.series = map[string][]float64{}
	for _, u := range sys.Units() {
		res.engines = append(res.engines, u.Engine.Stats())
		if u.Series != nil {
			res.series[u.Label()] = append([]float64(nil), u.Series.Values...)
		}
	}
	res.npi = sys.MinNPIByCore(0)
	res.skipped = sys.SkippedCycles()
	res.now = sys.Now()
	return res
}

// compareParSnapshots asserts two runs are bit-identical on every
// surface, naming the first divergence.
func compareParSnapshots(t *testing.T, label string, ref, got parSnapshot) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s: ", label)
		t.Fatalf(format, args...)
	}
	if ref.domains != got.domains {
		fail("domain counts differ: %d vs %d", ref.domains, got.domains)
	}
	if ref.now != got.now {
		fail("final cycles differ: %d vs %d", ref.now, got.now)
	}
	if len(ref.grants) != len(got.grants) {
		fail("grant counts differ: %d vs %d", len(ref.grants), len(got.grants))
	}
	for i := range ref.grants {
		if ref.grants[i] != got.grants[i] {
			fail("grant %d differs: %+v vs %+v", i, ref.grants[i], got.grants[i])
		}
	}
	if len(ref.credits) != len(got.credits) {
		fail("credit counts differ: %d vs %d", len(ref.credits), len(got.credits))
	}
	for i := range ref.credits {
		if ref.credits[i] != got.credits[i] {
			fail("credit %d differs: %+v vs %+v", i, ref.credits[i], got.credits[i])
		}
	}
	if len(ref.cmds) != len(got.cmds) {
		fail("DRAM command counts differ: %d vs %d", len(ref.cmds), len(got.cmds))
	}
	for i := range ref.cmds {
		if ref.cmds[i] != got.cmds[i] {
			fail("DRAM command %d differs: %+v vs %+v", i, ref.cmds[i], got.cmds[i])
		}
	}
	if len(ref.injs) != len(got.injs) {
		fail("injection counts differ: %d vs %d", len(ref.injs), len(got.injs))
	}
	for i := range ref.injs {
		if ref.injs[i] != got.injs[i] {
			fail("injection %d differs: %+v vs %+v", i, ref.injs[i], got.injs[i])
		}
	}
	if len(ref.wakes) != len(got.wakes) {
		fail("injection-wake counts differ: %d vs %d", len(ref.wakes), len(got.wakes))
	}
	for i := range ref.wakes {
		if ref.wakes[i] != got.wakes[i] {
			fail("injection-wake %d differs: %+v vs %+v", i, ref.wakes[i], got.wakes[i])
		}
	}
	for i := range ref.ctrls {
		if ref.ctrls[i] != got.ctrls[i] {
			fail("controller %d stats differ:\n  ref: %+v\n  got: %+v", i, ref.ctrls[i], got.ctrls[i])
		}
	}
	for i := range ref.dram {
		if ref.dram[i] != got.dram[i] {
			fail("DRAM channel %d stats differ:\n  ref: %+v\n  got: %+v", i, ref.dram[i], got.dram[i])
		}
	}
	for i := range ref.engines {
		if ref.engines[i] != got.engines[i] {
			fail("engine %d stats differ:\n  ref: %+v\n  got: %+v", i, ref.engines[i], got.engines[i])
		}
	}
	if len(ref.routers) != len(got.routers) {
		fail("router sets differ: %d vs %d", len(ref.routers), len(got.routers))
	}
	for name, rv := range ref.routers {
		if gv, ok := got.routers[name]; !ok || gv != rv {
			fail("router %q stats differ: %v vs %v", name, rv, got.routers[name])
		}
	}
	for core, rv := range ref.npi {
		if gv, ok := got.npi[core]; !ok || gv != rv {
			fail("core %q min NPI differs: %v vs %v", core, rv, got.npi[core])
		}
	}
	if len(ref.npi) != len(got.npi) {
		fail("NPI core sets differ: %d vs %d", len(ref.npi), len(got.npi))
	}
	for label2, rv := range ref.series {
		gv := got.series[label2]
		if len(rv) != len(gv) {
			fail("series %q lengths differ: %d vs %d", label2, len(rv), len(gv))
		}
		for i := range rv {
			if rv[i] != gv[i] {
				fail("series %q sample %d differs: %v vs %v", label2, i, rv[i], gv[i])
			}
		}
	}
}

// crossDomainGrants counts grants at channel-ingress routers coming from
// a remote domain's port — proof the run actually exercised the
// inter-domain mailboxes rather than degenerating to local traffic.
func crossDomainGrants(s parSnapshot) int {
	n := 0
	for _, g := range s.grants {
		var ch int
		if _, err := fmt.Sscanf(g.router, "chan%d", &ch); err == nil && g.port != ch {
			n++
		}
	}
	return n
}

// TestPartitionedSkipVsStep is the headline differential of the
// partitioned topology: over the 1x/2x/4x saturated SoCs the
// idle-skipping run must be bit-identical to the stepped reference on
// every trace and statistic, with cross-domain traffic in the mix.
func TestPartitionedSkipVsStep(t *testing.T) {
	cases := []struct {
		name    string
		cfg     sara.Config
		horizon sim.Cycle
	}{
		{"1x", sara.Saturated(), 20000},
		{"2x", sara.ScaledSaturated(2), 14000},
		{"4x", sara.ScaledSaturated(4), 10000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			drive := func(s *sara.System) { s.Run(tc.horizon) }
			ref := captureParallel(t, tc.cfg, true, drive)
			fast := captureParallel(t, tc.cfg, false, drive)
			if ref.skipped != 0 || fast.skipped == 0 {
				t.Fatalf("skipped %d cycles stepped and %d skipping, want 0 and some", ref.skipped, fast.skipped)
			}
			if len(ref.grants) == 0 {
				t.Fatalf("vacuous run: no grants at horizon %d", tc.horizon)
			}
			if n := crossDomainGrants(ref); n == 0 {
				t.Fatalf("vacuous run: no cross-domain grants (mailboxes untested)")
			}
			compareParSnapshots(t, tc.name, ref, fast)
		})
	}
}

// TestParallelRunSegmentation: cutting a run at an arbitrary (off-grid)
// horizon and resuming must be invisible — the exchange grid is
// absolute, so segmentation changes no exchange point. Skipped-cycle
// counts are not compared: the settle at a cut point executes cycles an
// uncut run would have skipped, and that is scheduler bookkeeping, not a
// simulation result.
func TestParallelRunSegmentation(t *testing.T) {
	cfg := sara.ScaledSaturated(2)
	one := captureParallel(t, cfg, false, func(s *sara.System) { s.Run(8000) })
	cut := captureParallel(t, cfg, false, func(s *sara.System) {
		s.Run(700) // off the exchange grid for every fuzzed hop latency
		s.Run(2500)
		s.Run(4800)
	})
	compareParSnapshots(t, "segmented", one, cut)
}

// TestParallelFallback: unpartitionable configs and plain Build build
// the serial System — one domain owning every channel, with the
// single-root Fig. 1 topology — and every System, partitioned or not,
// runs on one kernel and one DRAM.
func TestParallelFallback(t *testing.T) {
	// Hop latency pushes the lookahead past the response latency: a
	// completion could outrun the exchange, so Partition refuses.
	unpart := sara.Camcorder(sara.CaseA)
	unpart.NoC.HopLatency = unpart.NoC.RespLatency // lookahead = resp+1 > resp
	for _, tc := range []struct {
		name string
		sys  *sara.System
	}{
		{"unpartitionable", core.BuildParallel(unpart, 4)},
		{"Build", sara.Build(sara.Camcorder(sara.CaseA))},
	} {
		sys := tc.sys
		if sys.Domains() != 1 {
			t.Fatalf("%s: %d domains, want the serial System's 1", tc.name, sys.Domains())
		}
		if sys.Kernel() == nil || sys.DRAM() == nil {
			t.Fatalf("%s: serial System has no kernel or DRAM", tc.name)
		}
		var names []string
		for _, r := range sys.Routers() {
			names = append(names, r.Name())
		}
		if fmt.Sprint(names) != "[media system root]" {
			t.Fatalf("%s: routers %v, want [media system root]", tc.name, names)
		}
	}

	par := core.BuildParallel(sara.ScaledSaturated(4), 3)
	channels := par.Config().DRAM.Geometry.Channels
	if par.Domains() != channels {
		t.Fatalf("got %d domains, want one per channel (%d)", par.Domains(), channels)
	}
	if par.Kernel() == nil || par.DRAM() == nil {
		t.Fatalf("%d-domain System has no kernel or DRAM", par.Domains())
	}
}

// TestSkippedCyclesIsKernelCount pins System.SkippedCycles as the count
// of the System's one kernel, on a partitioned and a serial System.
func TestSkippedCyclesIsKernelCount(t *testing.T) {
	const horizon = 20000
	for _, sys := range []*sara.System{
		core.BuildParallel(sara.ScaledSaturated(4), 1),
		sara.Build(sara.Camcorder(sara.CaseA)),
	} {
		sys.Run(horizon)
		if got, want := sys.SkippedCycles(), sys.Kernel().SkippedCycles(); got != want || got == 0 {
			t.Fatalf("%d domains: SkippedCycles %d, kernel skipped %d", sys.Domains(), got, want)
		}
	}
}

// TestParallelWatchdog: the kernel watchdog bounds a checked run of a
// partitioned System, and refuses a further run once tripped (its
// executed-cycle count stays past the budget until SetWatchdog resets
// it).
func TestParallelWatchdog(t *testing.T) {
	sys := core.BuildParallel(sara.ScaledSaturated(2), 2)
	sys.SetWatchdog(&sara.Watchdog{MaxExecuted: 500})
	err := sys.RunChecked(1 << 20)
	var dl *sara.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunChecked under a 500-cycle budget: got %v, want DeadlockError", err)
	}
	if len(dl.Idlers) == 0 {
		t.Fatalf("watchdog trip on a partitioned System carries no per-idler dump")
	}
	if err2 := sys.RunChecked(10); err2 == nil {
		t.Fatalf("tripped partitioned System accepted another run")
	}
}

// TestAnalyzerOnPartitionedSystem: an analyzer attached to a partitioned
// System samples the channel ingress routers with the rest, and its
// sampler events and settle points change no simulated output.
func TestAnalyzerOnPartitionedSystem(t *testing.T) {
	bare := core.BuildParallel(sara.ScaledSaturated(2), 1)
	bare.RunFrames(1)
	sys := core.BuildParallel(sara.ScaledSaturated(2), 1)
	az := analysis.Attach(sys, analysis.Options{})
	sys.RunFrames(1)
	az.Detach()

	rep := az.Report()
	if rep.Samples == 0 {
		t.Fatal("report has no samples")
	}
	chans := 0
	for _, r := range rep.Routers {
		if strings.HasPrefix(r.Name, "chan") {
			chans++
		}
	}
	if want := sys.Domains(); chans != want {
		t.Fatalf("report has %d chanN routers, want one per domain (%d)", chans, want)
	}
	if got, want := digestOutputs(t, sys), digestOutputs(t, bare); got != want {
		t.Fatalf("analyzed outputs digest %s, bare %s", got, want)
	}
}
