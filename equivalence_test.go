package sara_test

import (
	"math"
	"testing"

	"sara"
)

// buildCaseA builds the full case-A camcorder system under the given
// policy with the default seed.
func buildCaseA(policy sara.Policy, skip bool) *sara.System {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(policy)))
	sys.Kernel().SetReference(!skip)
	return sys
}

// TestIdleSkipEquivalence is the determinism guard for the event-driven
// kernel: the idle-skipping fast path must be observationally identical
// to the cycle-stepped reference. It runs case A twice — once with
// skipping, once without — and asserts identical DRAM stats, controller
// stats, per-core minimum NPI and final cycle counts.
func TestIdleSkipEquivalence(t *testing.T) {
	for _, policy := range []sara.Policy{sara.QoS, sara.QoSRB, sara.FCFS, sara.RR, sara.FrameRate, sara.FRFCFS} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			reproOnFailure(t, "TestIdleSkipEquivalence/"+policy.String())
			ref := buildCaseA(policy, false)
			fast := buildCaseA(policy, true)

			const frames = 2
			ref.RunFrames(frames)
			fast.RunFrames(frames)

			if ref.Now() != fast.Now() {
				t.Fatalf("final cycle: reference %d, idle-skipping %d", ref.Now(), fast.Now())
			}
			if got := fast.Kernel().SkippedCycles(); got == 0 {
				t.Fatal("idle-skipping run skipped no cycles; the fast path did not engage")
			}
			if got := ref.Kernel().SkippedCycles(); got != 0 {
				t.Fatalf("reference run skipped %d cycles; SetReference(true) did not disable skipping", got)
			}

			refDRAM, fastDRAM := ref.DRAM().Stats(), fast.DRAM().Stats()
			if len(refDRAM.Channels) != len(fastDRAM.Channels) {
				t.Fatalf("DRAM channel counts differ: %d vs %d", len(refDRAM.Channels), len(fastDRAM.Channels))
			}
			for ch := range refDRAM.Channels {
				if refDRAM.Channels[ch] != fastDRAM.Channels[ch] {
					t.Errorf("DRAM channel %d stats differ:\n  reference: %+v\n  skipping:  %+v",
						ch, refDRAM.Channels[ch], fastDRAM.Channels[ch])
				}
			}

			refCtrls, fastCtrls := ref.Controllers(), fast.Controllers()
			for i := range refCtrls {
				rs, fs := refCtrls[i].Stats(), fastCtrls[i].Stats()
				if rs != fs {
					t.Errorf("controller %d stats differ:\n  reference: %+v\n  skipping:  %+v", i, rs, fs)
				}
			}

			refNPI := ref.MinNPIByCore(0)
			fastNPI := fast.MinNPIByCore(0)
			if len(refNPI) != len(fastNPI) {
				t.Fatalf("min-NPI core sets differ: %v vs %v", refNPI, fastNPI)
			}
			for core, v := range refNPI {
				fv, ok := fastNPI[core]
				if !ok {
					t.Errorf("core %q missing from idle-skipping min-NPI", core)
					continue
				}
				if v != fv {
					t.Errorf("core %q min NPI: reference %v, idle-skipping %v", core, v, fv)
				}
			}

			// Per-unit engine statistics, including the batched stall
			// accounting, must also line up exactly.
			for i, ru := range ref.Units() {
				fu := fast.Units()[i]
				if ru.Engine.Stats() != fu.Engine.Stats() {
					t.Errorf("unit %s engine stats differ:\n  reference: %+v\n  skipping:  %+v",
						ru.Label(), ru.Engine.Stats(), fu.Engine.Stats())
				}
			}

			// Router counters, including the back-filled stall cycles.
			refRouters, fastRouters := ref.Routers(), fast.Routers()
			for i := range refRouters {
				rr, fr := refRouters[i], fastRouters[i]
				if rr.Forwarded() != fr.Forwarded() || rr.Stalls() != fr.Stalls() {
					t.Errorf("router %s: reference fwd=%d stalls=%d, idle-skipping fwd=%d stalls=%d",
						rr.Name(), rr.Forwarded(), rr.Stalls(), fr.Forwarded(), fr.Stalls())
				}
			}
		})
	}
}

// TestIdleSkipEquivalenceRefresh repeats the aggregate equivalence check
// with LPDDR4 refresh enabled: the refresh state machine (tREFI accrual,
// forced drains, tRFC blackouts) must behave identically whether the
// kernel steps every cycle or fast-forwards between timing gates, and the
// run must actually exercise refresh.
func TestIdleSkipEquivalenceRefresh(t *testing.T) {
	build := func(policy sara.Policy, skip bool) *sara.System {
		sys := sara.Build(sara.Camcorder(sara.CaseA,
			sara.WithPolicy(policy), sara.WithRefresh(true)))
		sys.Kernel().SetReference(!skip)
		return sys
	}
	for _, policy := range []sara.Policy{sara.QoS, sara.QoSRB, sara.FRFCFS} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			reproOnFailure(t, "TestIdleSkipEquivalenceRefresh/"+policy.String())
			ref := build(policy, false)
			fast := build(policy, true)
			ref.RunFrames(2)
			fast.RunFrames(2)

			if got := fast.Kernel().SkippedCycles(); got == 0 {
				t.Fatal("refresh-enabled run skipped no cycles; the fast path did not engage")
			}
			refDRAM, fastDRAM := ref.DRAM().Stats(), fast.DRAM().Stats()
			for ch := range refDRAM.Channels {
				if refDRAM.Channels[ch] != fastDRAM.Channels[ch] {
					t.Errorf("DRAM channel %d stats differ:\n  reference: %+v\n  skipping:  %+v",
						ch, refDRAM.Channels[ch], fastDRAM.Channels[ch])
				}
			}
			if refDRAM.Totals().Refreshes == 0 {
				t.Fatal("refresh-enabled run issued no REF commands")
			}
			refCtrls, fastCtrls := ref.Controllers(), fast.Controllers()
			var refreshes uint64
			for i := range refCtrls {
				rs, fs := refCtrls[i].Stats(), fastCtrls[i].Stats()
				if rs != fs {
					t.Errorf("controller %d stats differ:\n  reference: %+v\n  skipping:  %+v", i, rs, fs)
				}
				refreshes += rs.Refreshes
			}
			if refreshes != refDRAM.Totals().Refreshes {
				t.Errorf("controller REF count %d disagrees with device count %d",
					refreshes, refDRAM.Totals().Refreshes)
			}
			refNPI, fastNPI := ref.MinNPIByCore(0), fast.MinNPIByCore(0)
			for core, v := range refNPI {
				if fv, ok := fastNPI[core]; !ok || v != fv {
					t.Errorf("core %q min NPI: reference %v, idle-skipping %v (ok=%v)", core, v, fv, ok)
				}
			}
			if duty := ref.DRAM().RefreshDuty(ref.Now()); duty <= 0 || duty > 0.2 {
				t.Errorf("refresh duty %v outside the plausible (0, 0.2] band", duty)
			}
		})
	}
}

// TestIdleSkipEquivalenceSeries pins the sampled NPI time series — the
// data behind the paper's figures — to be bit-identical between the two
// execution modes.
func TestIdleSkipEquivalenceSeries(t *testing.T) {
	reproOnFailure(t, "TestIdleSkipEquivalenceSeries")
	ref := buildCaseA(sara.QoS, false)
	fast := buildCaseA(sara.QoS, true)
	ref.RunFrames(1)
	fast.RunFrames(1)

	for i, ru := range ref.Units() {
		fu := fast.Units()[i]
		if (ru.Series == nil) != (fu.Series == nil) {
			t.Fatalf("unit %s: series presence differs", ru.Label())
		}
		if ru.Series == nil {
			continue
		}
		if ru.Series.Len() != fu.Series.Len() {
			t.Fatalf("unit %s: series lengths %d vs %d", ru.Label(), ru.Series.Len(), fu.Series.Len())
		}
		for j := range ru.Series.Values {
			if ru.Series.Cycles[j] != fu.Series.Cycles[j] ||
				ru.Series.Values[j] != fu.Series.Values[j] {
				t.Fatalf("unit %s sample %d: (%d, %v) vs (%d, %v)", ru.Label(), j,
					ru.Series.Cycles[j], ru.Series.Values[j],
					fu.Series.Cycles[j], fu.Series.Values[j])
			}
		}
	}

	// Sanity: the run produced meaningful NPI data at all.
	worst := math.Inf(1)
	for _, v := range ref.MinNPIByCore(0) {
		if v < worst {
			worst = v
		}
	}
	if math.IsInf(worst, 1) {
		t.Fatal("no NPI samples recorded")
	}
}
