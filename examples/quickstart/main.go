// Quickstart: build the paper's camcorder use case (test case A), run one
// frame under SARA's priority-based QoS policy, and check every core's
// health. This is the smallest complete use of the public API.
package main

import (
	"fmt"
	"sort"

	"sara"
)

func main() {
	// Test case A: all thirteen heterogeneous cores active, LPDDR4 at
	// 1866 MT/s. DefaultScaleDiv shrinks the 33 ms frame for a fast demo.
	cfg := sara.Camcorder(sara.CaseA,
		sara.WithPolicy(sara.QoS),
		sara.WithScaleDiv(sara.DefaultScaleDiv))

	sys := sara.Build(cfg)

	// One warmup frame, then one measured frame.
	sys.RunFrames(1)
	measureFrom := sys.Now()
	sys.RunFrames(1)

	fmt.Printf("simulated %d cycles, DRAM bandwidth %.2f GB/s, row-hit rate %.2f\n\n",
		sys.Now(), sys.DRAM().AverageBandwidthGBps(sys.Now()), sys.DRAM().RowHitRate())

	// Each core self-monitors its own notion of QoS; NPI >= 1 means the
	// target is met (Section 3.1 of the paper).
	min := sys.MinNPIByCore(measureFrom)
	cores := make([]string, 0, len(min))
	for c := range min {
		cores = append(cores, c)
	}
	sort.Strings(cores)
	for _, c := range cores {
		status := "ok"
		if min[c] < 1 {
			status = "BELOW TARGET"
		}
		fmt.Printf("%-14s min NPI %6.3f  %s\n", c, min[c], status)
	}
}
