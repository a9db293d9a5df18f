// DVFS: the Fig. 7 experiment. As DRAM frequency is scaled down from
// 1700 to 1300 MT/s, the image processor's priority-based self-adaptation
// compensates for the shrinking memory capacity by spending more time at
// high priority levels — the core keeps its frame rate, and the priority
// distribution is the visible fingerprint of the adaptation at work.
package main

import (
	"fmt"
	"log"
	"strings"

	"sara"
)

func main() {
	hists, err := sara.Fig7(sara.ExpOptions{ScaleDiv: sara.DefaultScaleDiv})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Image Proc. time share per priority level (0 = lowest urgency)")
	fmt.Println()
	fmt.Printf("%9s  %s\n", "DRAM", "levels 0..7")
	for _, h := range hists {
		fmt.Printf("%5d MT/s", h.DataRateMTps)
		for _, f := range h.Fraction {
			fmt.Printf(" %5.1f%%", 100*f)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("share of time at the two lowest vs two highest levels:")
	for _, h := range hists {
		lo := int(h.LowShare()*40 + 0.5)
		hi := int(h.HighShare()*40 + 0.5)
		fmt.Printf("%5d MT/s  low %-40s high %s\n",
			h.DataRateMTps, strings.Repeat("#", lo), strings.Repeat("#", hi))
	}
}
