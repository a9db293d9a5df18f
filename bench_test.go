// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablation sweeps of cmd/sarasweep (README,
// "Regenerating the figures"). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics (min NPI, GB/s) alongside ns/op.
package sara_test

import (
	"fmt"
	"testing"

	"sara"
	"sara/internal/core"
	"sara/internal/memctrl"
	"sara/internal/txn"
)

func benchOpt() sara.ExpOptions { return sara.ExpOptions{ScaleDiv: 256} }

// BenchmarkFig4Adaptation exercises the Fig. 4 adaptation loop: one frame
// of case A under Policy 1 with every meter and adapter live.
func BenchmarkFig4Adaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS)))
		sys.RunFrames(1)
	}
}

// BenchmarkFig5 regenerates Fig. 5: case A under the four policies.
func BenchmarkFig5(b *testing.B) {
	for _, p := range []sara.Policy{sara.FCFS, sara.RR, sara.FrameRate, sara.QoS} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				run := sara.RunPolicy(sara.CaseA, p, benchOpt())
				worst = minOf(run.MinNPI)
			}
			b.ReportMetric(worst, "worst-min-NPI")
		})
	}
}

// BenchmarkFig6 regenerates Fig. 6: case B under the four policies.
func BenchmarkFig6(b *testing.B) {
	for _, p := range []sara.Policy{sara.FCFS, sara.RR, sara.FrameRate, sara.QoS} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				run := sara.RunPolicy(sara.CaseB, p, benchOpt())
				worst = minOf(run.MinNPI)
			}
			b.ReportMetric(worst, "worst-min-NPI")
		})
	}
}

// BenchmarkFig7Sweep regenerates Fig. 7: the DRAM frequency sweep with the
// image processor's priority distribution.
func BenchmarkFig7Sweep(b *testing.B) {
	var high float64
	for i := 0; i < b.N; i++ {
		hists, err := sara.Fig7(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		high = hists[len(hists)-1].HighShare()
	}
	b.ReportMetric(high, "high-prio-share@1300")
}

// BenchmarkFig8Bandwidth regenerates Fig. 8: average DRAM bandwidth under
// the five scheduling policies on the saturated workload.
func BenchmarkFig8Bandwidth(b *testing.B) {
	for _, p := range []sara.Policy{sara.RR, sara.FCFS, sara.QoS, sara.QoSRB, sara.FRFCFS} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				cfg := sara.Saturated(sara.WithPolicy(p))
				sys := sara.Build(cfg)
				sys.RunFrames(1)
				from := sys.Now()
				before := sys.DRAM().Stats()
				sys.RunFrames(1)
				bw = sys.DRAM().BandwidthOverWindowGBps(before, from, sys.Now())
			}
			b.ReportMetric(bw, "GB/s")
		})
	}
}

// BenchmarkFig9RowBuffer regenerates Fig. 9: FR-FCFS vs QoS-RB on case A.
func BenchmarkFig9RowBuffer(b *testing.B) {
	for _, p := range []sara.Policy{sara.FRFCFS, sara.QoSRB} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				run := sara.RunPolicy(sara.CaseA, p, benchOpt())
				worst = minOf(run.MinNPI)
			}
			b.ReportMetric(worst, "worst-min-NPI")
		})
	}
}

// BenchmarkAblationDelta sweeps Policy 2's row-buffer threshold.
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []txn.Priority{0, 2, 4, 6, 7} {
		delta := delta
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				cfg := sara.Saturated(sara.WithPolicy(sara.QoSRB), sara.WithDelta(delta))
				sys := sara.Build(cfg)
				sys.RunFrames(2)
				bw = sys.DRAM().AverageBandwidthGBps(sys.Now())
			}
			b.ReportMetric(bw, "GB/s")
		})
	}
}

// BenchmarkAblationPriorityBits sweeps the quantization k (paper: k = 3
// suffices).
func BenchmarkAblationPriorityBits(b *testing.B) {
	for bits := 1; bits <= 4; bits++ {
		bits := bits
		b.Run(fmt.Sprintf("k=%d", bits), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				cfg := sara.Camcorder(sara.CaseA,
					sara.WithPolicy(sara.QoS), sara.WithPriorityBits(bits))
				if bits != 3 {
					// Per-core LUT overrides are sized for 8 levels.
					for j := range cfg.DMAs {
						cfg.DMAs[j].LUTBounds = nil
					}
				}
				sys := sara.Build(cfg)
				sys.RunFrames(1)
				from := sys.Now()
				sys.RunFrames(1)
				worst = minOf(sys.MinNPIByCore(from))
			}
			b.ReportMetric(worst, "worst-min-NPI")
		})
	}
}

// BenchmarkAblationAging sweeps the starvation limit T.
func BenchmarkAblationAging(b *testing.B) {
	for _, t := range []sara.Cycle{1000, 10000, 100000, 0} {
		t := t
		name := fmt.Sprintf("T=%d", t)
		if t == 0 {
			name = "T=off"
		}
		b.Run(name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				cfg := sara.Camcorder(sara.CaseA,
					sara.WithPolicy(sara.QoS), sara.WithAgingT(t))
				sys := sara.Build(cfg)
				sys.RunFrames(1)
				from := sys.Now()
				sys.RunFrames(1)
				worst = minOf(sys.MinNPIByCore(from))
			}
			b.ReportMetric(worst, "worst-min-NPI")
		})
	}
}

// BenchmarkAblationAdaptInterval sweeps the adaptation period.
func BenchmarkAblationAdaptInterval(b *testing.B) {
	for _, iv := range []sara.Cycle{256, 1024, 4096, 16384} {
		iv := iv
		b.Run(fmt.Sprintf("interval=%d", iv), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				cfg := sara.Camcorder(sara.CaseA,
					sara.WithPolicy(sara.QoS), sara.WithAdaptInterval(iv))
				sys := sara.Build(cfg)
				sys.RunFrames(1)
				from := sys.Now()
				sys.RunFrames(1)
				worst = minOf(sys.MinNPIByCore(from))
			}
			b.ReportMetric(worst, "worst-min-NPI")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw cycles/second of the full
// case A system, the number a user sizing longer runs cares about. The
// event-driven kernel fast-forwards quiescent stretches and the hot path
// is allocation-free, so this should report 0 allocs/op and a skipped
// fraction well above zero.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys := sara.Build(sara.Camcorder(sara.CaseA))
	sys.RunFrames(1) // pools, heaps and queues reach steady capacity
	growSeries(sys, sara.Cycle(b.N)*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "cycles/op")
	b.ReportMetric(100*float64(sys.Kernel().SkippedCycles())/float64(sys.Now()), "%skipped")
}

// BenchmarkSimulatorThroughputRefresh measures the full case A system
// with LPDDR4 refresh enabled: the refresh state machine rides the same
// timing-gate machinery, so throughput should stay close to the
// refresh-free number and allocs/op should stay at 0.
func BenchmarkSimulatorThroughputRefresh(b *testing.B) {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithRefresh(true)))
	sys.RunFrames(1) // pools, heaps and queues reach steady capacity
	growSeries(sys, sara.Cycle(b.N)*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "cycles/op")
	b.ReportMetric(100*float64(sys.Kernel().SkippedCycles())/float64(sys.Now()), "%skipped")
}

// BenchmarkLoadedPhaseThroughput measures ns/cycle through the saturated
// (non-idle) phase of the Fig. 8 workload: the CPU cluster floods every
// channel, so there are no system-wide idle gaps for the kernel to skip
// and the number isolates how cheaply the per-cycle machinery runs under
// sustained load — in particular whether the NoC routers stay dormant
// between grants instead of re-scanning ready heads every executed cycle.
func BenchmarkLoadedPhaseThroughput(b *testing.B) {
	sys := sara.Build(sara.Saturated())
	sys.RunFrames(1) // reach the saturated steady state
	growSeries(sys, sara.Cycle(b.N)*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "cycles/op")
	b.ReportMetric(100*float64(sys.Kernel().SkippedCycles())/float64(sys.Now()), "%skipped")
}

// BenchmarkLoadedPhaseThroughputScaled measures the saturated phase on
// the scaled SoC configs (2x and 4x channels and cores). The number to
// compare across sizes is ns/cycle divided by the channel count: the
// per-bank candidate buckets keep each controller's scan proportional to
// active banks rather than queue depth, so per-channel cost should stay
// near-flat as the system grows. Allocs/op must stay at 0 at every scale.
func BenchmarkLoadedPhaseThroughputScaled(b *testing.B) {
	for _, factor := range []int{2, 4} {
		factor := factor
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			sys := sara.Build(sara.ScaledSaturated(factor))
			sys.RunFrames(1)
			growSeries(sys, sara.Cycle(b.N)*1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Run(1000)
			}
			b.ReportMetric(1000, "cycles/op")
			b.ReportMetric(float64(sys.Config().DRAM.Geometry.Channels), "channels")
		})
	}
}

// BenchmarkLoadedPhaseThroughputParallel measures the saturated phase on
// the 4x SoC's partitioned topology. Compare ns/cycle against
// BenchmarkLoadedPhaseThroughputScaled/4x: the difference prices the
// ingress hop and the mailbox exchange. Allocs/op must stay at 0.
func BenchmarkLoadedPhaseThroughputParallel(b *testing.B) {
	sys := core.BuildParallel(sara.ScaledSaturated(4), 1)
	if sys.Domains() < 2 {
		b.Fatal("4x saturated config should partition")
	}
	sys.RunFrames(1)
	growSeries(sys, sara.Cycle(b.N)*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "cycles/op")
	b.ReportMetric(float64(sys.Config().DRAM.Geometry.Channels), "channels")
}

// BenchmarkLoadedPhaseThroughputReference is the loaded-phase measurement
// on the stepped reference (SetReference) — the cycle-stepped floor the
// event-driven kernel is compared against.
func BenchmarkLoadedPhaseThroughputReference(b *testing.B) {
	sys := sara.Build(sara.Saturated())
	sys.Kernel().SetReference(true)
	sys.RunFrames(1)
	growSeries(sys, sara.Cycle(b.N)*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "cycles/op")
}

// BenchmarkSimulatorThroughputReference measures the same system on the
// stepped reference (SetReference) — the path the equivalence tests
// compare against. The gap between this and
// BenchmarkSimulatorThroughput is what event-driven execution buys.
func BenchmarkSimulatorThroughputReference(b *testing.B) {
	sys := sara.Build(sara.Camcorder(sara.CaseA))
	sys.Kernel().SetReference(true)
	sys.RunFrames(1) // pools, heaps and queues reach steady capacity
	growSeries(sys, sara.Cycle(b.N)*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "cycles/op")
}

// BenchmarkFig5Parallel regenerates Fig. 5 with the runs fanned across
// GOMAXPROCS workers (the default harness mode), versus the serial
// BenchmarkFig5 sub-benchmarks above.
func BenchmarkFig5Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := sara.Fig5(benchOpt())
		if err != nil || len(runs) != 4 {
			b.Fatalf("Fig5: %d runs, %v", len(runs), err)
		}
	}
}

func minOf(m map[string]float64) float64 {
	worst := 1e18
	for _, v := range m {
		if v < worst {
			worst = v
		}
	}
	return worst
}

var _ = memctrl.AllPolicies // keep the explicit policy dependency visible
