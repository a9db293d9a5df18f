package sara_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sara"
	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/sim"
)

// fuzzScale returns the SARA_FUZZ_SCALE multiplier (default 1) applied to
// every randomized-config pool size. CI's race job sets it to 2 so the
// short-mode differentials still cover a meaningful pool under the
// detector's slowdown.
func fuzzScale() int {
	if s := os.Getenv("SARA_FUZZ_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// The randomized differential harness: each case derives a whole system
// configuration from a single uint64 seed — test case, policy, refresh,
// workload seed, a random subset of the core roster, per-DMA windows and
// rate bursts, NoC port depths / hop latencies / aging, controller queue
// split and delta — and requires the idle-skipping event-driven run to be
// bit-identical to the cycle-stepped force-scan reference: aggregate
// statistics, the full NoC grant trace and the full credit-return trace.
// A failure names the config seed; fuzzConfig(seed) rebuilds the exact
// configuration for offline reproduction.

// fuzzPolicies is the policy pool the harness draws from.
var fuzzPolicies = []sara.Policy{sara.FCFS, sara.RR, sara.FRFCFS, sara.FrameRate, sara.QoS, sara.QoSRB}

// fuzzConfig deterministically derives a full system configuration from
// seed, and whether the pool's partitioned leg also runs it on the
// per-channel topology. Keep this function stable: failure messages
// identify configs by seed only.
func fuzzConfig(seed uint64) (cfg sara.Config, desc string, partitioned bool) {
	rng := sim.NewRand(seed)
	tc := sara.CaseA
	if rng.Bool(0.3) {
		tc = sara.CaseB
	}
	policy := fuzzPolicies[rng.Intn(len(fuzzPolicies))]
	refresh := rng.Bool(0.35)
	cfg = sara.Camcorder(tc,
		sara.WithPolicy(policy),
		sara.WithSeed(rng.Uint64()),
		sara.WithRefresh(refresh),
		sara.WithAgingT([]sara.Cycle{0, 500, 10000}[rng.Intn(3)]),
		sara.WithDelta(sara.Priority(rng.Intn(8))),
	)

	// Core mix: drop DMAs at random (topology varies with the mix — the
	// media and system aggregation routers disappear when their groups
	// empty out), keeping at least two so the system still routes.
	roster := cfg.DMAs
	kept := make([]sara.DMASpec, 0, len(roster))
	for _, spec := range roster {
		if rng.Bool(0.3) {
			continue
		}
		kept = append(kept, spec)
	}
	if len(kept) < 2 {
		kept = append(kept[:0], roster[:2]...)
	}
	cfg.DMAs = kept

	// Per-DMA shape: outstanding windows and rate bursts. Every
	// transaction is one DRAM burst; the draw that once picked a request
	// size stays, discarded, so a seed keeps its other draws.
	for i := range cfg.DMAs {
		s := &cfg.DMAs[i]
		_ = rng.Intn(4)
		if s.Source.Kind == sara.SrcRate {
			s.Source.BurstReqs = 1 + rng.Intn(16)
		}
		if rng.Bool(0.4) {
			s.Window = 4 + rng.Intn(60)
		}
	}

	// NoC knobs: shallow ports sharpen credit backpressure, hop 0 makes
	// injections arbitrable the same cycle, aging reshuffles selection.
	cfg.NoC.PortDepth = []int{2, 4, 8, 16}[rng.Intn(4)]
	cfg.NoC.HopLatency = sim.Cycle(rng.Intn(4))
	cfg.NoC.AgingT = []sim.Cycle{0, 300, 10000}[rng.Intn(3)]

	// Controller queue split: the credit-return boundary under test.
	switch rng.Intn(3) {
	case 1:
		cfg.QueueCaps = memctrl.QueueCaps{4, 4, 3, 6, 4}
	case 2:
		cfg.QueueCaps = memctrl.QueueCaps{16, 16, 12, 24, 16}
	}

	// SoC scale: a slice of the pool runs at 2x or 4x channels and cores,
	// so the controllers' per-bank bucket invalidation is differentially
	// fuzzed across system sizes (the force-scan stepped reference
	// re-derives candidates from scratch every cycle).
	factor := 1
	switch rng.Intn(5) {
	case 3:
		factor = 2
	case 4:
		factor = 4
	}
	cfg = sara.ScaleSoC(cfg, factor)

	// Adversarial dormancy patterns for the active-ticker list, drawn
	// after the scale draw (appending keeps every earlier draw — and so
	// every historic failure seed — meaning the same thing) and applied to
	// the scaled roster so they compose with 2x/4x SoCs.
	dormancy := "none"
	switch rng.Intn(4) {
	case 1:
		// Long quiescence: starve the steady consumers' token fill so
		// they sleep for thousands of cycles between bursts, stretching
		// the windows the kernel must prove empty.
		dormancy = "quiesce"
		for i := range cfg.DMAs {
			if s := &cfg.DMAs[i].Source; s.Kind == sara.SrcRate || s.Kind == sara.SrcCPU {
				s.RateBps /= 64
			}
		}
	case 2:
		// Single-cycle wakes: smooth, slow rate sources emit exactly one
		// request per token fill, so every wake is a one-cycle island of
		// activity between dormant stretches.
		dormancy = "singles"
		for i := range cfg.DMAs {
			s := &cfg.DMAs[i].Source
			if s.Kind == sara.SrcRate {
				s.RateBps /= 16
				s.BurstReqs = 1
			}
			if s.Kind == sara.SrcSporadic {
				s.RateBps /= 8
			}
		}
	case 3:
		// Co-due bursts: strip every start offset so the periodic engines
		// wake in phase and the active list must tick co-due packs in
		// registration order instead of one staggered ticker at a time.
		dormancy = "codue"
		for i := range cfg.DMAs {
			cfg.DMAs[i].Source.StartOffsetFrac = 0
		}
	}

	// Partitioned topology: two thirds of the pool also run the
	// per-channel topology stepped and skipping (drawn last — appending
	// keeps every historic failure seed meaningful; the draw once picked
	// a domain-worker count of 1, 2 or 4). The serial differential modes
	// always run the serial System.
	partitioned = rng.Intn(3) != 0

	desc = fmt.Sprintf("case%v/%v/refresh=%v/dmas=%d/depth=%d/hop=%d/scale=%dx/dorm=%s/part=%v",
		tc, policy, refresh, len(cfg.DMAs), cfg.NoC.PortDepth, cfg.NoC.HopLatency, factor, dormancy,
		partitioned)
	return cfg, desc, partitioned
}

// diffResult is everything one run exposes that the differential compares.
type diffResult struct {
	grants  []tracedGrant
	credits []tracedCredit
	ctrls   []memctrl.Stats
	dram    []dram.ChannelStats
	routers map[string][2]uint64
	engines []dma.Stats
	npi     map[string]float64
	skipped uint64
}

// captureRun executes cfg for the given horizon in one of the two
// differential modes: the cycle-stepped reference (skip=false: the
// kernel's SetReference mode, every component ticked every cycle and the
// controller buckets bypassed) or the event-driven idle-skipping run
// (skip=true). The mode lives on the
// System's kernel, so concurrent captures never see each other's mode.
func captureRun(cfg sara.Config, skip bool, horizon sara.Cycle) diffResult {
	var res diffResult
	// Both differential modes run the serial System; the partitioned leg
	// builds its own systems through captureParallel.
	sys := sara.Build(cfg)
	sys.Probe(sara.Probes{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			res.grants = append(res.grants, tracedGrant{name, now, port, out, id})
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			res.credits = append(res.credits, tracedCredit{name, now, port, wasFull})
		},
	})
	sys.Kernel().SetReference(!skip)
	sys.Run(horizon)

	for _, c := range sys.Controllers() {
		res.ctrls = append(res.ctrls, c.Stats())
	}
	res.dram = append(res.dram, sys.DRAM().Stats().Channels...)
	res.routers = map[string][2]uint64{}
	for _, r := range sys.Routers() {
		res.routers[r.Name()] = [2]uint64{r.Forwarded(), r.Stalls()}
	}
	for _, u := range sys.Units() {
		res.engines = append(res.engines, u.Engine.Stats())
	}
	res.npi = sys.MinNPIByCore(0)
	res.skipped = sys.Kernel().SkippedCycles()
	return res
}

// compareDiff asserts two runs of the same config are bit-identical.
func compareDiff(t *testing.T, seed uint64, ref, fast diffResult) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("config seed %#x: %s (rebuild with fuzzConfig(seed))",
			seed, fmt.Sprintf(format, args...))
	}
	if len(ref.grants) != len(fast.grants) {
		fail("grant counts differ: step %d, skip %d", len(ref.grants), len(fast.grants))
	}
	for i := range ref.grants {
		if ref.grants[i] != fast.grants[i] {
			fail("grant %d differs: step %+v, skip %+v", i, ref.grants[i], fast.grants[i])
		}
	}
	if len(ref.credits) != len(fast.credits) {
		fail("credit counts differ: step %d, skip %d", len(ref.credits), len(fast.credits))
	}
	for i := range ref.credits {
		if ref.credits[i] != fast.credits[i] {
			fail("credit %d differs: step %+v, skip %+v", i, ref.credits[i], fast.credits[i])
		}
	}
	for i := range ref.ctrls {
		if ref.ctrls[i] != fast.ctrls[i] {
			fail("controller %d stats differ:\n  step: %+v\n  skip: %+v", i, ref.ctrls[i], fast.ctrls[i])
		}
	}
	for i := range ref.dram {
		if ref.dram[i] != fast.dram[i] {
			fail("DRAM channel %d stats differ:\n  step: %+v\n  skip: %+v", i, ref.dram[i], fast.dram[i])
		}
	}
	if len(ref.routers) != len(fast.routers) {
		fail("router sets differ: %v vs %v", ref.routers, fast.routers)
	}
	for name, rv := range ref.routers {
		if fv, ok := fast.routers[name]; !ok || fv != rv {
			fail("router %s fwd/stalls differ: step %v, skip %v", name, rv, fast.routers[name])
		}
	}
	for i := range ref.engines {
		if ref.engines[i] != fast.engines[i] {
			fail("engine %d stats differ:\n  step: %+v\n  skip: %+v", i, ref.engines[i], fast.engines[i])
		}
	}
	if len(ref.npi) != len(fast.npi) {
		fail("min-NPI core sets differ: %v vs %v", ref.npi, fast.npi)
	}
	for core, v := range ref.npi {
		if fv, ok := fast.npi[core]; !ok || fv != v {
			fail("core %q min NPI differs: step %v, skip %v", core, v, fast.npi[core])
		}
	}
}

// TestRandomizedSkipVsStepDifferential fuzzes the skip-vs-step boundary
// across 50 randomized configurations. Every config must produce an
// identical NoC grant trace, credit trace and aggregate statistics in
// the cycle-stepped force-scan reference and the wake-wheel idle-skipping
// run. Across the pool, the event-driven runs must actually have skipped
// cycles and granted packets (the harness must not pass vacuously). The
// configs run as parallel subtests; the pool totals are collected under
// a mutex and checked once every subtest has finished.
func TestRandomizedSkipVsStepDifferential(t *testing.T) {
	const (
		baseSeed = uint64(0x5a7a_2026_07_29)
		horizon  = sara.Cycle(30000)
	)
	configs := 50
	if testing.Short() {
		configs = 10
	}
	configs *= fuzzScale()
	// The partitioned leg costs two extra builds per config, so it runs
	// a shorter horizon than the serial legs.
	const parHorizon = sara.Cycle(12000)
	var mu sync.Mutex
	var totalGrants, totalSkipped, refreshRuns, scaledRuns, dormancyRuns, partitionedRuns uint64
	// Cleanup runs after every parallel subtest has completed, so the
	// totals are final there.
	t.Cleanup(func() {
		if totalGrants == 0 || totalSkipped == 0 {
			t.Errorf("vacuous fuzz pool: %d grants, %d skipped cycles across %d configs",
				totalGrants, totalSkipped, configs)
		}
		if testing.Short() {
			return
		}
		if refreshRuns == 0 {
			t.Error("fuzz pool exercised no refresh-enabled configs")
		}
		if scaledRuns == 0 {
			t.Error("fuzz pool exercised no scaled-SoC configs")
		}
		if dormancyRuns == 0 {
			t.Error("fuzz pool exercised no adversarial dormancy configs")
		}
		if partitionedRuns == 0 {
			t.Error("fuzz pool exercised no partitioned runs")
		}
	})
	for i := 0; i < configs; i++ {
		seed := sim.NewRand(baseSeed).Fork(uint64(i)).Uint64()
		cfg, desc, partitioned := fuzzConfig(seed)
		if !strings.Contains(desc, "dorm=none") {
			dormancyRuns++
		}
		t.Run(fmt.Sprintf("cfg%02d_%s", i, desc), func(t *testing.T) {
			t.Parallel()
			reproOnFailure(t, fmt.Sprintf("TestRandomizedSkipVsStepDifferential/cfg%02d_.*", i))
			ref := captureRun(cfg, false, horizon)
			fast := captureRun(cfg, true, horizon)
			if ref.skipped != 0 {
				t.Fatalf("config seed %#x: force-scan reference skipped %d cycles", seed, ref.skipped)
			}
			compareDiff(t, seed, ref, fast)
			mu.Lock()
			totalGrants += uint64(len(fast.grants))
			totalSkipped += fast.skipped
			if cfg.DRAM.Refresh.Enabled {
				refreshRuns++
			}
			if cfg.DRAM.Geometry.Channels > 2 {
				scaledRuns++
			}
			mu.Unlock()
			// Partitioned leg: on partitionable configs that drew it, the
			// per-channel topology's skipping run must be bit-identical to
			// its stepped reference.
			if _, ok := core.Partition(cfg); ok && partitioned {
				drive := func(s *sara.System) { s.Run(parHorizon) }
				pref := captureParallel(t, cfg, true, drive)
				pfast := captureParallel(t, cfg, false, drive)
				if pref.skipped != 0 {
					t.Fatalf("config seed %#x: partitioned reference skipped %d cycles", seed, pref.skipped)
				}
				compareParSnapshots(t, fmt.Sprintf("config seed %#x: partitioned step vs skip", seed), pref, pfast)
				mu.Lock()
				partitionedRuns++
				mu.Unlock()
			}
		})
	}
}

// TestReferenceIsolationConcurrentSystems runs the force-scan reference
// and the idle-skipping run of one fuzz config at the same time, on two
// goroutines, and requires each to match its own serial run. The
// reference switch is per kernel, so neither System may see the other's
// mode; under the race detector this also proves the components read
// no process-global mode state.
func TestReferenceIsolationConcurrentSystems(t *testing.T) {
	t.Parallel()
	const horizon = sara.Cycle(20000)
	seed := sim.NewRand(0x5a7a_2026_07_29).Fork(0).Uint64() // the fuzz pool's cfg00
	cfg, desc, _ := fuzzConfig(seed)
	reproOnFailure(t, "TestReferenceIsolationConcurrentSystems")
	serialRef := captureRun(cfg, false, horizon)
	serialFast := captureRun(cfg, true, horizon)

	var ref, fast diffResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ref = captureRun(cfg, false, horizon) }()
	go func() { defer wg.Done(); fast = captureRun(cfg, true, horizon) }()
	wg.Wait()

	// compareDiff labels its sides "step" and "skip"; here they are the
	// serial run and the concurrent run of the same mode.
	compareDiff(t, seed, serialRef, ref)
	compareDiff(t, seed, serialFast, fast)
	if ref.skipped != 0 || fast.skipped != serialFast.skipped {
		t.Fatalf("%s: concurrent runs skipped %d (reference) and %d (skipping) cycles, serial %d and %d",
			desc, ref.skipped, fast.skipped, serialRef.skipped, serialFast.skipped)
	}
	if fast.skipped == 0 || len(fast.grants) == 0 {
		t.Fatalf("%s: vacuous run: %d skipped cycles, %d grants", desc, fast.skipped, len(fast.grants))
	}
}

// TestRepoConfigsValidate: every config the repository builds — the
// camcorder use cases, the saturated workload, their 1x/2x/4x scaled
// SoCs and the fuzz pool at its full CI size — passes Config.Validate.
func TestRepoConfigsValidate(t *testing.T) {
	t.Parallel()
	cfgs := map[string]sara.Config{"saturated": sara.Saturated()}
	for _, tc := range []sara.Case{sara.CaseA, sara.CaseB} {
		cfgs[fmt.Sprintf("camcorder-%v", tc)] = sara.Camcorder(tc)
		for _, f := range []int{1, 2, 4} {
			cfgs[fmt.Sprintf("camcorder-%v-%dx", tc, f)] = sara.ScaledCamcorder(tc, f)
		}
	}
	for _, f := range []int{1, 2, 4} {
		cfgs[fmt.Sprintf("saturated-%dx", f)] = sara.ScaledSaturated(f)
	}
	for i := 0; i < 100; i++ {
		cfg, desc, _ := fuzzConfig(sim.NewRand(0x5a7a_2026_07_29).Fork(uint64(i)).Uint64())
		cfgs[fmt.Sprintf("fuzz%02d_%s", i, desc)] = cfg
	}
	for name, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
