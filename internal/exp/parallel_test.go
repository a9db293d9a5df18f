package exp

import (
	"reflect"
	"strings"
	"testing"

	"sara/internal/config"
	"sara/internal/memctrl"
)

// TestParallelMatchesSerial asserts the acceptance property of the
// parallel harness: fanning the (case, policy, frequency) runs across
// workers yields results identical to serial execution with the same
// seed — every run owns its own kernel and forked RNG streams.
func TestParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	serial := FastOptions()
	serial.Workers = 1
	parallel := FastOptions()
	parallel.Workers = 0 // GOMAXPROCS

	t.Run("fig5", func(t *testing.T) {
		s, p := Fig5(serial), Fig5(parallel)
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig5 parallel results differ from serial")
		}
	})
	t.Run("fig8", func(t *testing.T) {
		s, p := Fig8(serial), Fig8(parallel)
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig8 parallel results differ from serial")
		}
	})
	t.Run("fig7", func(t *testing.T) {
		s, p := Fig7(serial), Fig7(parallel)
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig7 parallel results differ from serial")
		}
	})
}

// TestEffectiveDomainWorkers pins the shared core budget: the across-run
// fan-out wins the contested cores, the per-run domain count gets the
// remainder, and both floors are 1.
func TestEffectiveDomainWorkers(t *testing.T) {
	t.Parallel()
	cases := []struct{ req, runW, procs, want int }{
		{0, 4, 8, 1},  // serial kernel requested
		{1, 4, 8, 1},  // one worker is the serial execution
		{4, 1, 8, 4},  // whole machine available to the single run
		{4, 2, 8, 4},  // 8 cores / 2 runs: the request exactly fits
		{4, 4, 8, 2},  // across-run fan-out wins: 8/4 leaves 2 per run
		{4, 8, 8, 1},  // fully fanned out: domains degrade to 1
		{4, 16, 8, 1}, // oversubscribed fan-out still floors at 1
		{4, 0, 8, 4},  // unset run workers counts as 1
		{8, 1, 4, 4},  // requested above the machine: capped
		{2, 1, 1, 1},  // single-core host: budget floors at 1
	}
	for _, c := range cases {
		if got := EffectiveDomainWorkers(c.req, c.runW, c.procs); got != c.want {
			t.Errorf("EffectiveDomainWorkers(%d, %d, %d) = %d, want %d",
				c.req, c.runW, c.procs, got, c.want)
		}
	}
}

// TestDomainWorkersBudgetInvariance: the budget caps goroutines, never
// results — a domain-parallel sweep crammed beside a saturating run
// fan-out (1 goroutine per run) matches the same sweep given the whole
// machine, because the partitioned topology is identical either way.
func TestDomainWorkersBudgetInvariance(t *testing.T) {
	t.Parallel()
	lone := FastOptions()
	lone.Workers = 1
	lone.DomainWorkers = 4
	crowded := FastOptions()
	crowded.Workers = 64 // starves the per-run domain budget down to 1
	crowded.DomainWorkers = 4
	a, b := Fig8(lone), Fig8(crowded)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Fig8 results changed with the domain-worker budget")
	}
}

// TestDomainKernelJournalKey: the partitioned build is a different
// topology with different results, so it must hash to a different
// journal key — while the goroutine count, which never changes results,
// must not affect the key. The repro line carries the kernel choice.
func TestDomainKernelJournalKey(t *testing.T) {
	t.Parallel()
	c := Cell{Case: config.CaseA, Policy: memctrl.QoS}
	serial := FastOptions()
	par := FastOptions()
	par.DomainWorkers = 2
	if c.Key(serial) == c.Key(par) {
		t.Fatal("domain-parallel cell hashed to the serial journal key")
	}
	par4 := FastOptions()
	par4.DomainWorkers = 4
	if c.Key(par) != c.Key(par4) {
		t.Fatal("goroutine count changed the journal key")
	}
	if r := c.Repro(par); !strings.Contains(r, "-domain-workers 2") {
		t.Fatalf("repro line misses the kernel choice: %s", r)
	}
	if r := c.Repro(serial); strings.Contains(r, "-domain-workers") {
		t.Fatalf("serial repro line names a domain kernel: %s", r)
	}
}
