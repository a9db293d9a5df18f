package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestQuantileRule(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{99, 0.9, 90, 9}, // a p90 of 99 samples has too few beyond it
		{200, 0.95, 190, 10},
		{20, 0.9, 18, 2},
		{1, 0.9, 1, 0},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: quantile must sort
		}
		got, beyond := quantile(xs, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("quantile(n=%d, %v) = %v, %d beyond; want %v, %d", c.n, c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"runtime.sched": 50 * ms, // scheduler stacks without a simulator frame
		"sim.barrier":   120 * ms,
		"sim":           10 * ms, // innermost simulator frame wins over core.parallel
		"core.parallel": 30 * ms,
		"memctrl":       20 * ms,
		"noc":           1200 * ms,
		"runtime.gc":    70 * ms, // mallocgc, a background mark worker, an assist
		"stats":         10 * ms, // txn
		"core":          20 * ms, // config
		"exp":           10 * ms, // repro
		"other":         10 * ms,
	}
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("layer %s = %v, want %v", l, got[l], want[l])
		}
	}
	if len(got) != len(want) {
		t.Errorf("folded into %d layers, want %d: %v", len(got), len(want), got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps its sibling
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 2, Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 30, 10}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestDigestStable(t *testing.T) {
	a := map[string]float64{}
	b := map[string]float64{}
	keys := []string{"Display", "DSP", "GPS", "WiFi", "USB", "Camera"}
	for i, k := range keys {
		a[k] = float64(i) / 3
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b[keys[i]] = float64(i) / 3
	}
	if digest(a) != digest(b) {
		t.Error("digest depends on map insertion order")
	}
	b["DSP"] = math.Nextafter(b["DSP"], 1)
	if digest(a) == digest(b) {
		t.Error("digest missed a one-ulp change")
	}
}

func TestInputSeed(t *testing.T) {
	for s, want := range map[uint64]uint64{0: 16, 1: 1, 2: 2, 16: 16, 17: 1, 1000: 8} {
		if got := inputSeed(s); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", s, got, want)
		}
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRe.MatchString(d.name) || len(d.name) > 64 || seen[d.name] {
			t.Errorf("bad or repeated metric name %q", d.name)
		}
		if !unitRe.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRe.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkJSON is the root BENCHMARK.json that declares this benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	var declared, code []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		code = append(code, w.name)
	}
	sameSet(t, "workloads", declared, code)

	// Timings are bounded by the ten-seed spread measured on a shared
	// 2-vCPU host (README.md), the deterministic memory figures by 10%;
	// set-up time, which a change can move work into, has the largest bound.
	maxBound := map[string]float64{"live_heap_mb": 0.1, "alloc_bytes_per_frame": 0.1}
	setupBound := 0.0
	declared, code = nil, nil
	for _, m := range bj.EndToEnd {
		declared = append(declared, m.Name+" "+m.Unit)
		limit, ok := maxBound[m.Name]
		if !ok {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v (at most %v), better %q", m.Name, m.Bound, limit, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range bj.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("end-to-end %s: bound %v exceeds setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	for _, d := range endToEnd {
		code = append(code, d.name+" "+d.unit)
	}
	sameSet(t, "end-to-end metrics", declared, code)

	declared, code = nil, nil
	for _, m := range bj.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, d := range perLayer {
		code = append(code, d.name+" "+d.unit)
	}
	sameSet(t, "per-layer metrics", declared, code)
}

func sameSet(t *testing.T, what string, declared, code []string) {
	t.Helper()
	sort.Strings(declared)
	sort.Strings(code)
	if !slices.Equal(declared, code) {
		t.Errorf("%s: BENCHMARK.json declares %v, the code emits %v", what, declared, code)
	}
}

// TestSmoke runs every workload for one small round through the code
// path the benchmark uses, and one traced run, and checks that every
// declared metric comes out finite.
func TestSmoke(t *testing.T) {
	g, err := loadGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, res result, defs []metricDef) {
		t.Helper()
		if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v", name, d.name, m)
			}
		}
	}
	for _, w := range workloads {
		res, err := run(w, options{seed: 1, size: 1, minRounds: 1, outDir: t.TempDir(), golden: g, log: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(w.name, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
			}
		}
	}

	w, _ := findWorkload("camcorder-a")
	res, err := run(w, options{seed: 1, size: 1, trace: true, minRounds: 2, outDir: t.TempDir(), golden: g, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	check("traced "+w.name, res, perLayer)
	var sum float64
	for _, l := range layers {
		sum += res.Metrics[l+".self_ns_per_cycle"].Value
	}
	if sum <= 0 {
		t.Errorf("layer self times sum to %v", sum)
	}
}
