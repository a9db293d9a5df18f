// Camcorder: the paper's headline comparison (Figs. 5 and 6). Runs the
// camcorder workload under all four arbitration policies for both test
// cases and prints which critical cores miss their targets under each —
// showing that only the priority-based QoS policy delivers every target.
package main

import (
	"fmt"
	"log"
	"strings"

	"sara"
	"sara/internal/exp"
)

func main() {
	opt := sara.ExpOptions{ScaleDiv: sara.DefaultScaleDiv}

	fmt.Println("test case A (all cores, LPDDR4-1866)")
	fmt.Println(strings.Repeat("-", 60))
	runs, err := sara.Fig5(opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, run := range runs {
		report(run)
	}

	fmt.Println()
	fmt.Println("test case B (GPS/camera/rotator/JPEG off, LPDDR4-1700)")
	fmt.Println(strings.Repeat("-", 60))
	if runs, err = sara.Fig6(opt); err != nil {
		log.Fatal(err)
	}
	for _, run := range runs {
		report(run)
	}
}

func report(run sara.PolicyRun) {
	failures := run.Failures()
	verdict := "all critical cores meet their targets"
	if len(failures) > 0 {
		verdict = "BELOW TARGET: " + strings.Join(failures, ", ")
	}
	fmt.Printf("%-10s bw %5.2f GB/s   %s\n", run.Policy, run.BandwidthGBps, verdict)
	_ = exp.FormatRun // full per-core tables available via exp.FormatRun(run)
}
