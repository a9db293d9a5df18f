package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sara/internal/config"
	"sara/internal/memctrl"
)

// TestSeedFanOutReproducible is the acceptance property of the seed
// fan-out: running the same (case, policy) across N seeds through the
// parallel harness yields per-seed results — and the confidence intervals
// derived from them — identical to serial execution, and the seeds
// genuinely vary the workload.
func TestSeedFanOutReproducible(t *testing.T) {
	t.Parallel()
	seeds := []uint64{1, 2, 3, 4}
	serial := Options{}
	serial.Workers = 1
	parallel := Options{}
	parallel.Workers = 0 // GOMAXPROCS

	s := must(RunSeeds(config.CaseA, memctrl.QoS, seeds, serial))
	p := must(RunSeeds(config.CaseA, memctrl.QoS, seeds, parallel))
	if !reflect.DeepEqual(s, p) {
		t.Fatal("seed fan-out results differ between serial and parallel execution")
	}

	sNPI, pNPI := WorstNPISummary(s), WorstNPISummary(p)
	if sNPI != pNPI {
		t.Fatalf("NPI summaries differ: serial %+v, parallel %+v", sNPI, pNPI)
	}
	sBW, pBW := BandwidthSummary(s), BandwidthSummary(p)
	if sBW != pBW {
		t.Fatalf("bandwidth summaries differ: serial %+v, parallel %+v", sBW, pBW)
	}

	if sNPI.N != len(seeds) {
		t.Fatalf("summary over %d runs, want %d", sNPI.N, len(seeds))
	}
	for _, v := range []float64{sNPI.Mean, sNPI.Std, sNPI.CI95, sBW.Mean, sBW.Std, sBW.CI95} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("non-finite or negative summary term: NPI %+v, bandwidth %+v", sNPI, sBW)
		}
	}

	// Distinct seeds must produce distinct workloads — otherwise the CI is
	// a tautology. Bandwidth is the most seed-sensitive scalar.
	varied := false
	for i := 1; i < len(s); i++ {
		if s[i].BandwidthGBps != s[0].BandwidthGBps {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("all seeds produced identical bandwidth; seeds do not vary the workload")
	}

	if out := FormatSeedSummary(s); out == "" {
		t.Fatal("empty seed summary")
	}
}

// TestSeedFanOutRerunIdentity asserts the fan-out is deterministic run to
// run, not just worker-count independent: the CI a CI job records today
// must be the CI it records tomorrow.
func TestSeedFanOutRerunIdentity(t *testing.T) {
	t.Parallel()
	seeds := []uint64{7, 8}
	opt := Options{}
	a := WorstNPISummary(must(RunSeeds(config.CaseB, memctrl.FCFS, seeds, opt)))
	b := WorstNPISummary(must(RunSeeds(config.CaseB, memctrl.FCFS, seeds, opt)))
	if a != b {
		t.Fatalf("repeated fan-out summaries differ: %+v vs %+v", a, b)
	}
	if a.Std != 0 && a.CI95 == 0 {
		t.Fatalf("nonzero spread with zero CI: %+v", a)
	}
}

// TestWorstNPISummarySkipsEmptyRuns is the sentinel-leak regression: a
// run with an empty MinNPI map (no metered core produced a sample) must
// not contribute a huge sentinel "worst" to the summary — it is skipped,
// and N reports only contributing runs.
func TestWorstNPISummarySkipsEmptyRuns(t *testing.T) {
	t.Parallel()
	runs := []PolicyRun{
		{MinNPI: map[string]float64{"Display": 1.1, "DSP": 0.9}},
		{MinNPI: map[string]float64{}}, // no samples: must be skipped
		{MinNPI: nil},                  // likewise
		{MinNPI: map[string]float64{"Display": 1.3}},
	}
	s := WorstNPISummary(runs)
	if s.N != 2 {
		t.Fatalf("summary N = %d, want 2 (empty runs skipped)", s.N)
	}
	if want := (0.9 + 1.3) / 2; math.Abs(s.Mean-want) > 1e-12 {
		t.Fatalf("summary mean %v, want %v (a sentinel leaked in)", s.Mean, want)
	}

	// All-empty input degrades to the zero summary, not to NaN or 1e18.
	if s := WorstNPISummary([]PolicyRun{{MinNPI: nil}}); s.N != 0 || s.Mean != 0 {
		t.Fatalf("all-empty summary = %+v, want zero value", s)
	}
}

// TestPerCoreNPISummaries covers the per-core error-bar aggregation the
// seed sweep tables print: stable sorted core order, per-core N counting
// only the runs that measured the core, and correct means.
func TestPerCoreNPISummaries(t *testing.T) {
	t.Parallel()
	runs := []PolicyRun{
		{MinNPI: map[string]float64{"Display": 1.1, "DSP": 0.9}},
		{MinNPI: map[string]float64{"Display": 1.3}}, // DSP unmeasured this seed
		{MinNPI: nil},
	}
	cores, sums := PerCoreNPISummaries(runs)
	if !reflect.DeepEqual(cores, []string{"DSP", "Display"}) {
		t.Fatalf("core order %v, want [DSP Display]", cores)
	}
	if s := sums["Display"]; s.N != 2 || math.Abs(s.Mean-1.2) > 1e-12 {
		t.Fatalf("Display summary %+v, want N=2 mean=1.2", s)
	}
	if s := sums["DSP"]; s.N != 1 || s.Mean != 0.9 || s.CI95 != 0 {
		t.Fatalf("DSP summary %+v, want N=1 mean=0.9", s)
	}
}

// TestFormatSeedSummaryPerCoreRows asserts the seed summary renders the
// per-core error-bar table alongside the aggregate lines.
func TestFormatSeedSummaryPerCoreRows(t *testing.T) {
	t.Parallel()
	seeds := []uint64{1, 2}
	runs := must(RunSeeds(config.CaseA, memctrl.QoS, seeds, Options{}))
	out := FormatSeedSummary(runs)
	cores, _ := PerCoreNPISummaries(runs)
	if len(cores) == 0 {
		t.Fatal("no cores measured; the per-core table would be empty")
	}
	for _, core := range cores {
		if !strings.Contains(out, core) {
			t.Fatalf("summary lacks per-core row for %q:\n%s", core, out)
		}
	}
	if !strings.Contains(out, "+/-") {
		t.Fatalf("summary lacks error bars:\n%s", out)
	}
}
