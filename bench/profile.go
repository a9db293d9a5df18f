package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers are the parts of the simulator host time is attributed to: the
// repo's packages, two sub-layers of the domain-parallel kernel, the Go
// runtime's collector and scheduler, and everything else.
var layers = []string{
	"sim", "sim.barrier", "noc", "memctrl", "dram", "dma", "traffic", "meter", "adapt",
	"core", "core.parallel", "exp", "analysis", "stats",
	"runtime.gc", "runtime.sched", "other",
}

// packageLayer maps a sara/internal package to its layer. config builds
// systems, so it belongs to core; txn's transactions to stats; repro's
// rerun lines to the exp supervisor.
var packageLayer = map[string]string{
	"sim": "sim", "noc": "noc", "memctrl": "memctrl", "dram": "dram", "dma": "dma",
	"traffic": "traffic", "meter": "meter", "adapt": "adapt",
	"core": "core", "config": "core", "exp": "exp", "repro": "exp",
	"analysis": "analysis", "stats": "stats", "txn": "stats",
}

// layerOf attributes one sampled stack, innermost frame first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.mallocgc") ||
			strings.HasPrefix(fn, "runtime.gcAssistAlloc") {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "sara/internal/")
		if !ok {
			continue
		}
		pkg, sym, _ := strings.Cut(rest, ".")
		switch {
		case pkg == "sim" && strings.HasPrefix(sym, "(*Barrier)"):
			return "sim.barrier"
		case pkg == "core" && (strings.HasPrefix(sym, "(*parRun)") || strings.HasPrefix(sym, "(*xferRing)") ||
			strings.HasPrefix(sym, "(*crossLink)")):
			return "core.parallel"
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		return "other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.goschedImpl") || strings.HasPrefix(fn, "runtime.findRunnable") {
			return "runtime.sched"
		}
	}
	return "other"
}

// foldTraces reads `go tool pprof -traces` output and sums sampled time
// per layer. Each trace is a block between separator lines: the first
// line holds the sample value and the innermost frame, the rest hold the
// callers.
func foldTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var stack []string
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			out[layerOf(stack)] += value
		}
		stack = stack[:0]
	}
	inTraces := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", fields[0], err)
			}
			value = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0]) // drops the "(inline)" marker
		}
	}
	flush()
	return out, sc.Err()
}

// foldProfiles folds the CPU profiles with the toolchain's pprof.
func foldProfiles(paths []string) (map[string]time.Duration, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return foldTraces(&stdout)
}
