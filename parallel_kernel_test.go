package sara_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"sara"
	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/sim"
)

// The domain-parallel kernel's equivalence contract: on a partitionable
// config, every worker count produces bit-identical results — aggregate
// statistics, NPI series, and the full grant / credit / DRAM-command /
// injection / injection-wake traces. workers=1 runs the partitioned
// topology serially on the calling goroutine, so it is the serial
// reference execution; 2- and N-worker runs must reproduce it exactly.
// Domains emit trace events concurrently, so the collectors lock and the
// streams are canonicalized by sorting on their full field tuple: each
// per-component stream is deterministic (a domain is single-threaded),
// so the sorted union is too.

// parSnapshot is everything one parallel run exposes for comparison.
type parSnapshot struct {
	workers int // actual goroutine count (after the divisor clamp)
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

// captureParallel builds cfg with the given worker count, drives it with
// drive, and snapshots every comparable surface. The domains run
// concurrently and share the System's probes, so collection locks.
func captureParallel(t *testing.T, cfg sara.Config, workers int, drive func(*sara.System)) parSnapshot {
	t.Helper()
	var (
		mu  sync.Mutex
		res parSnapshot
	)
	sys := core.BuildParallel(cfg, workers)
	if sys.Domains() < 2 {
		t.Fatalf("BuildParallel(workers=%d) fell back to the serial kernel", workers)
	}
	defer sys.Close()
	sys.Probe(sara.Probes{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			mu.Lock()
			res.grants = append(res.grants, tracedGrant{name, now, port, out, id})
			mu.Unlock()
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			mu.Lock()
			res.credits = append(res.credits, tracedCredit{name, now, port, wasFull})
			mu.Unlock()
		},
		Command: func(ch int, now sim.Cycle, id uint64, kind byte) {
			mu.Lock()
			res.cmds = append(res.cmds, tracedCmd{ch, now, id, kind})
			mu.Unlock()
		},
		Inject: func(now sim.Cycle, source int, id uint64, addr uint64) {
			mu.Lock()
			res.injs = append(res.injs, tracedInj{now, source, id, addr})
			mu.Unlock()
		},
		Wake: func(source int, at sim.Cycle, cause byte) {
			mu.Lock()
			res.wakes = append(res.wakes, tracedWake{source, at, cause})
			mu.Unlock()
		},
	})
	drive(sys)

	res.workers = sys.DomainWorkers()
	res.domains = sys.Domains()
	sortParTraces(&res)
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

// sortParTraces canonicalizes the concurrent trace streams: a total
// order over every field makes sorted equality a multiset comparison,
// and each per-component substream is deterministic, so the whole sorted
// stream is reproducible across worker counts.
func sortParTraces(res *parSnapshot) {
	sort.Slice(res.grants, func(i, j int) bool {
		a, b := res.grants[i], res.grants[j]
		if a.now != b.now {
			return a.now < b.now
		}
		if a.router != b.router {
			return a.router < b.router
		}
		if a.port != b.port {
			return a.port < b.port
		}
		if a.out != b.out {
			return a.out < b.out
		}
		return a.id < b.id
	})
	sort.Slice(res.credits, func(i, j int) bool {
		a, b := res.credits[i], res.credits[j]
		if a.now != b.now {
			return a.now < b.now
		}
		if a.name != b.name {
			return a.name < b.name
		}
		if a.port != b.port {
			return a.port < b.port
		}
		return !a.wasFull && b.wasFull
	})
	sort.Slice(res.cmds, func(i, j int) bool {
		a, b := res.cmds[i], res.cmds[j]
		if a.now != b.now {
			return a.now < b.now
		}
		if a.ch != b.ch {
			return a.ch < b.ch
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return a.kind < b.kind
	})
	sort.Slice(res.injs, func(i, j int) bool {
		a, b := res.injs[i], res.injs[j]
		if a.now != b.now {
			return a.now < b.now
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return a.addr < b.addr
	})
	sort.Slice(res.wakes, func(i, j int) bool {
		a, b := res.wakes[i], res.wakes[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.cause < b.cause
	})
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
	if ref.skipped != got.skipped {
		fail("skipped-cycle totals differ: %d vs %d", ref.skipped, got.skipped)
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

// TestParallelWorkerCountEquivalence is the headline differential: the
// partitioned topology at 1, 2 and 4 workers (clamped to the channel
// count's divisors) over the 1x/2x/4x saturated SoCs must be
// bit-identical on every trace and statistic.
func TestParallelWorkerCountEquivalence(t *testing.T) {
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
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			drive := func(s *sara.System) { s.Run(tc.horizon) }
			ref := captureParallel(t, tc.cfg, 1, drive)
			if ref.workers != 1 {
				t.Fatalf("reference run used %d workers, want 1", ref.workers)
			}
			if len(ref.grants) == 0 {
				t.Fatalf("vacuous run: no grants at horizon %d", tc.horizon)
			}
			if n := crossDomainGrants(ref); n == 0 {
				t.Fatalf("vacuous run: no cross-domain grants (mailboxes untested)")
			}
			for _, workers := range []int{2, 4} {
				got := captureParallel(t, tc.cfg, workers, drive)
				if got.workers < 2 {
					t.Fatalf("requested %d workers, got %d goroutines (domains=%d)",
						workers, got.workers, got.domains)
				}
				compareParSnapshots(t, tc.name, ref, got)
			}
		})
	}
}

// TestParallelRunSegmentation: cutting a run at an arbitrary (off-grid)
// horizon and resuming must be invisible — the epoch grid is absolute,
// so segmentation changes no exchange point.
func TestParallelRunSegmentation(t *testing.T) {
	cfg := sara.ScaledSaturated(2)
	one := captureParallel(t, cfg, 2, func(s *sara.System) { s.Run(8000) })
	cut := captureParallel(t, cfg, 2, func(s *sara.System) {
		s.Run(700) // off the epoch grid for every fuzzed hop latency
		s.Run(2500)
		s.Run(4800)
	})
	// Idle-skip accounting is boundary-sensitive — the settle at a cut
	// point executes cycles an uncut run would have skipped — and is
	// scheduler bookkeeping, not a simulation result. Everything else
	// must match exactly.
	cut.skipped = one.skipped
	compareParSnapshots(t, "segmented", one, cut)
}

// TestParallelFallback: unpartitionable configs and plain Build build
// the serial System — one domain owning every channel, with the
// single-root Fig. 1 topology — and the partitioned build has no single
// kernel.
func TestParallelFallback(t *testing.T) {
	// Hop latency pushes the lookahead past the response latency: a
	// completion could outrun the barrier, so Partition refuses.
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
		if sys.Domains() != 1 || sys.DomainWorkers() != 1 {
			t.Fatalf("%s: %d domains on %d workers, want the serial System (1 on 1)",
				tc.name, sys.Domains(), sys.DomainWorkers())
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

	// The partitioned build clamps workers to a divisor of the domain
	// count, never changing the topology (results stay machine-independent
	// when a budget caps the goroutine count).
	par := core.BuildParallel(sara.ScaledSaturated(4), 3)
	channels := par.Config().DRAM.Geometry.Channels
	if par.Domains() != channels {
		t.Fatalf("got %d domains, want one per channel (%d)", par.Domains(), channels)
	}
	if par.DomainWorkers() != 2 {
		t.Fatalf("8 domains at 3 requested workers: got %d, want divisor clamp to 2", par.DomainWorkers())
	}
	if par.Kernel() != nil || par.DRAM() != nil {
		t.Fatalf("8-domain System exposes a single kernel or DRAM")
	}
}

// TestSkippedCyclesPerDomainMean pins System.SkippedCycles as the mean
// over the domain kernels, which each run every cycle up to Now: on a
// partitioned System it lies in [0, Now()] (a sum over domains would not
// on the 4x SoC's eight domains, whose sum runs past twice Now by cycle
// 20,000), and on a one-domain System it is the kernel's own count.
func TestSkippedCyclesPerDomainMean(t *testing.T) {
	const horizon = 20000
	par := core.BuildParallel(sara.ScaledSaturated(4), 2)
	defer par.Close()
	par.Run(horizon)
	if par.Domains() < 2 {
		t.Fatalf("4x SoC partitioned into %d domains, want several", par.Domains())
	}
	if got := par.SkippedCycles(); got == 0 || got > uint64(par.Now()) {
		t.Fatalf("%d domains: SkippedCycles %d after %d cycles, want in (0, Now]", par.Domains(), got, par.Now())
	}
	serial := sara.Build(sara.Camcorder(sara.CaseA))
	serial.Run(horizon)
	if got, want := serial.SkippedCycles(), serial.Kernel().SkippedCycles(); got != want || got == 0 {
		t.Fatalf("one domain: SkippedCycles %d, kernel skipped %d", got, want)
	}
}

// TestParallelWatchdog: the boundary watchdog bounds a checked parallel
// run, and a tripped run poisons the System (the epoch exchange stopped
// mid-flight, so its state is no longer trustworthy).
func TestParallelWatchdog(t *testing.T) {
	sys := core.BuildParallel(sara.ScaledSaturated(2), 2)
	sys.SetWatchdog(&sara.Watchdog{MaxExecuted: 500})
	err := sys.RunChecked(1 << 20)
	var dl *sara.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunChecked under a 500-cycle budget: got %v, want DeadlockError", err)
	}
	if err2 := sys.RunChecked(10); err2 == nil {
		t.Fatalf("tripped parallel system accepted another run")
	}
}
