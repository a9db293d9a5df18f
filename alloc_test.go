package sara_test

import (
	"slices"
	"testing"

	"sara"
	"sara/internal/core"
)

// growSeries reserves NPI series capacity for the next cycles simulated
// cycles. The series are the only state that grows with the horizon, so
// with their appends pre-sized an allocation gate or a throughput
// benchmark's allocs/op holds at any iteration count instead of
// averaging amortized slice doublings away.
func growSeries(sys *sara.System, cycles sara.Cycle) {
	n := int(cycles/sys.Config().SampleEvery) + 1
	for _, u := range sys.Units() {
		if u.Series != nil {
			u.Series.Cycles = slices.Grow(u.Series.Cycles, n)
			u.Series.Values = slices.Grow(u.Series.Values, n)
		}
	}
}

// allocsPer1000 reports testing.AllocsPerRun over runs 1000-cycle
// segments of sys, with the series pre-sized for the warm-up call plus
// the measured ones.
func allocsPer1000(sys *sara.System, runs int) float64 {
	growSeries(sys, sara.Cycle(runs+1)*1000)
	return testing.AllocsPerRun(runs, func() { sys.Run(1000) })
}

// TestSteadyStateAllocations pins the hot path to zero heap allocations:
// after warmup, simulating case A allocates nothing per cycle —
// transactions come from the pool, completion events carry a pointer
// payload through the intrusive heap, and every scratch buffer is
// reused.
func TestSteadyStateAllocations(t *testing.T) {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS)))
	// Warm up one frame so pools, heaps and FIFOs reach steady capacity.
	sys.RunFrames(1)

	if allocs := allocsPer1000(sys, 50); allocs > 0 {
		t.Fatalf("steady state allocates %.1f times per 1000 cycles, want 0", allocs)
	}
}

// TestSteadyStateAllocationsRefresh pins the refresh-enabled hot path:
// the refresh state machine (forced drains, opportunistic pull-in, wake
// recomputation) must run entirely on preallocated state.
func TestSteadyStateAllocationsRefresh(t *testing.T) {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS), sara.WithRefresh(true)))
	sys.RunFrames(1)

	if allocs := allocsPer1000(sys, 50); allocs > 0 {
		t.Fatalf("refresh-enabled steady state allocates %.1f times per 1000 cycles, want 0", allocs)
	}
}

// TestSteadyStateAllocationsLoaded pins the saturated (non-idle) phase:
// the event-driven NoC's dormancy bookkeeping — window recomputation,
// credit wakes, stall backfill — must run entirely on preallocated state
// even when every channel is flooded and grants flow back to back.
func TestSteadyStateAllocationsLoaded(t *testing.T) {
	sys := sara.Build(sara.Saturated())
	sys.RunFrames(1)

	if allocs := allocsPer1000(sys, 50); allocs > 0 {
		t.Fatalf("loaded phase allocates %.1f times per 1000 cycles, want 0", allocs)
	}
}

// TestSteadyStateAllocationsScaled pins the 4x scaled SoC: eight
// channels of per-bank bucket maintenance — pushes, removals, dirty
// marks, cached-bound refreshes — must run entirely on preallocated
// state even with four times the DMAs flooding the system.
func TestSteadyStateAllocationsScaled(t *testing.T) {
	sys := sara.Build(sara.ScaledSaturated(4))
	sys.RunFrames(1)

	if allocs := allocsPer1000(sys, 20); allocs > 0 {
		t.Fatalf("scaled loaded phase allocates %.1f times per 1000 cycles, want 0", allocs)
	}
}

// TestSteadyStateAllocationsParallel pins the domain-parallel kernel's
// steady state: the per-worker epoch loop — barrier waits, mailbox-ring
// exchange, cross-link credit returns, per-domain kernel runs — must run
// entirely on preallocated state. AllocsPerRun counts mallocs
// process-wide, so the parked worker goroutines are covered too.
func TestSteadyStateAllocationsParallel(t *testing.T) {
	sys := core.BuildParallel(sara.ScaledSaturated(4), 2)
	if sys.Domains() < 2 {
		t.Fatalf("4x saturated config should partition")
	}
	sys.RunFrames(1)

	if allocs := allocsPer1000(sys, 20); allocs > 0 {
		t.Fatalf("parallel steady state allocates %.1f times per 1000 cycles, want 0", allocs)
	}
}

// TestSteadyStateAllocationsReference pins the stepped reference path
// (SetReference: every component ticked every cycle, controller buckets
// bypassed) too: allocation freedom must not depend on idle skipping.
func TestSteadyStateAllocationsReference(t *testing.T) {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS)))
	sys.Kernel().SetReference(true)
	sys.RunFrames(1)

	if allocs := allocsPer1000(sys, 20); allocs > 0 {
		t.Fatalf("reference path allocates %.1f times per 1000 cycles, want 0", allocs)
	}
}
