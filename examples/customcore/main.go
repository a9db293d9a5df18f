// Customcore: extending SARA with a user-defined core. The paper's §3.1
// argues that distributed self-monitoring makes the system extensible —
// "a new core can be added or modified without updating the rest of the
// system." This example adds a neural accelerator ("NPU") to test case A:
// a work-chunk engine with a processing-time deadline, a custom
// NPI-to-priority table, and its own bandwidth appetite. Nothing else in
// the system changes.
package main

import (
	"fmt"
	"sort"

	"sara"
	"sara/internal/txn"
)

func main() {
	cfg := sara.Camcorder(sara.CaseA,
		sara.WithPolicy(sara.QoS),
		sara.WithScaleDiv(sara.DefaultScaleDiv))

	// The NPU joins the system queue: inference tiles arrive every tenth
	// of a frame and must finish within 60% of their period. Its custom
	// LUT escalates aggressively — an accelerator stalled on memory
	// wastes a large fixed power budget.
	cfg.DMAs = append(cfg.DMAs, sara.DMASpec{
		Core:      "NPU",
		Class:     txn.ClassSystem,
		Critical:  true,
		Window:    16,
		LUTBounds: []float64{1.6, 1.4, 1.25, 1.15, 1.05, 1.0, 0.9, 0},
		Source: sara.SourceSpec{
			Kind:            sara.SrcChunk,
			RateBps:         0.5e9,
			ReadFrac:        0.8,
			ChunkPeriodFrac: 0.2,
			DeadlineFrac:    0.7,
		},
	})

	sys := sara.Build(cfg)
	sys.RunFrames(1)
	from := sys.Now()
	sys.RunFrames(1)

	fmt.Println("with the NPU added, under SARA's priority-based QoS policy:")
	min := sys.MinNPIByCore(from)
	fmt.Printf("  NPU min NPI: %.3f\n", min["NPU"])

	cores := make([]string, 0, len(min))
	for core := range min {
		cores = append(cores, core)
	}
	sort.Strings(cores)
	below := 0
	for _, core := range cores {
		if v := min[core]; v < 1 {
			fmt.Printf("  %-14s min NPI %.3f BELOW TARGET\n", core, v)
			below++
		}
	}
	if below == 0 {
		fmt.Println("  every other core still meets its target — the NPU")
		fmt.Println("  integrated without retuning the rest of the system")
	}

	if u, ok := sys.Unit("NPU"); ok {
		h := u.Adapter.Histogram()
		fmt.Print("  NPU priority time share:")
		for lvl := 0; lvl < h.Levels(); lvl++ {
			fmt.Printf(" %d:%.0f%%", lvl, 100*h.Fraction(lvl))
		}
		fmt.Println()
	}
}
