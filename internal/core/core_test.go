package core_test

import (
	"testing"

	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/memctrl"
	"sara/internal/txn"
)

func fastCfg(opts ...config.Option) core.Config {
	return config.Camcorder(config.CaseA, append([]config.Option{config.WithScaleDiv(512)}, opts...)...)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		sys := core.Build(fastCfg())
		sys.RunFrames(1)
		var completed uint64
		for _, u := range sys.Units() {
			completed += u.Engine.Stats().Completed
		}
		return completed, sys.DRAM().AverageBandwidthGBps(sys.Now())
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%d, %v) vs (%d, %v)", c1, b1, c2, b2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	s1 := core.Build(fastCfg(config.WithSeed(1)))
	s2 := core.Build(fastCfg(config.WithSeed(2)))
	s1.RunFrames(1)
	s2.RunFrames(1)
	var c1, c2 uint64
	for _, u := range s1.Units() {
		c1 += u.Engine.Stats().Completed
	}
	for _, u := range s2.Units() {
		c2 += u.Engine.Stats().Completed
	}
	if c1 == c2 {
		t.Log("identical completion counts across seeds (possible but unlikely); checking latency")
		var l1, l2 uint64
		for _, u := range s1.Units() {
			l1 += u.Engine.Stats().TotalLatency
		}
		for _, u := range s2.Units() {
			l2 += u.Engine.Stats().TotalLatency
		}
		if l1 == l2 {
			t.Fatal("different seeds produced identical systems")
		}
	}
}

func TestUnitLookup(t *testing.T) {
	sys := core.Build(fastCfg())
	if _, ok := sys.Unit("Display"); !ok {
		t.Fatal("Display unit missing")
	}
	if _, ok := sys.Unit("Rotator/rd"); !ok {
		t.Fatal("Rotator/rd unit missing")
	}
	if _, ok := sys.Unit("nope"); ok {
		t.Fatal("bogus unit found")
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	cfg := fastCfg()
	cfg.DMAs = append(cfg.DMAs, cfg.DMAs[0])
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate DMA label accepted")
		}
	}()
	core.Build(cfg)
}

func TestInvalidConfigPanics(t *testing.T) {
	for name, mutate := range map[string]func(*core.Config){
		"zero scale":    func(c *core.Config) { c.ScaleDiv = 0 },
		"bits too big":  func(c *core.Config) { c.PriorityBits = 9 },
		"zero adapt":    func(c *core.Config) { c.AdaptInterval = 0 },
		"zero sampling": func(c *core.Config) { c.SampleEvery = 0 },
	} {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			cfg := fastCfg()
			mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			core.Build(cfg)
		})
	}
}

func TestConservationOfTransactions(t *testing.T) {
	// Every injected transaction is either completed or still somewhere in
	// flight; nothing is lost or duplicated.
	sys := core.Build(fastCfg())
	sys.RunFrames(2)
	for _, u := range sys.Units() {
		st := u.Engine.Stats()
		if st.Completed > st.Injected {
			t.Fatalf("%s completed %d > injected %d", u.Label(), st.Completed, st.Injected)
		}
		inFlight := st.Injected - st.Completed
		if inFlight != uint64(u.Engine.Outstanding()) {
			t.Fatalf("%s in-flight mismatch: %d vs outstanding %d",
				u.Label(), inFlight, u.Engine.Outstanding())
		}
	}
}

func TestBaselinePoliciesDisableAdaptation(t *testing.T) {
	sys := core.Build(fastCfg(config.WithPolicy(memctrl.FCFS)))
	sys.RunFrames(1)
	for _, u := range sys.Units() {
		if u.Adapter != nil && u.Adapter.Current() != 0 {
			t.Fatalf("%s has priority %d under FCFS, want 0 (SARA disabled)",
				u.Label(), u.Adapter.Current())
		}
	}
}

func TestSARAAdaptsPriorities(t *testing.T) {
	sys := core.Build(fastCfg(config.WithPolicy(memctrl.QoS)))
	sys.RunFrames(2)
	levelsUsed := 0
	for _, u := range sys.Units() {
		if u.Adapter == nil {
			continue
		}
		h := u.Adapter.Histogram()
		for lvl := 1; lvl < h.Levels(); lvl++ {
			if h.Fraction(lvl) > 0 {
				levelsUsed++
			}
		}
	}
	if levelsUsed == 0 {
		t.Fatal("no DMA ever left priority 0 under SARA")
	}
}

func TestMinNPIByCoreTakesWorstDMA(t *testing.T) {
	sys := core.Build(fastCfg())
	sys.RunFrames(1)
	min := sys.MinNPIByCore(0)
	if len(min) == 0 {
		t.Fatal("no NPI data")
	}
	// The rotator reports one value for its two DMAs.
	if _, ok := min["Rotator"]; !ok {
		t.Fatal("Rotator missing from per-core summary")
	}
	if _, ok := min["Rotator/rd"]; ok {
		t.Fatal("per-DMA label leaked into per-core summary")
	}
}

func TestCriticalCores(t *testing.T) {
	sys := core.Build(fastCfg())
	crits := sys.CriticalCores()
	want := map[string]bool{"Display": true, "Camera": true, "GPS": true, "DSP": true}
	seen := map[string]bool{}
	for _, c := range crits {
		seen[c] = true
	}
	for c := range want {
		if !seen[c] {
			t.Errorf("critical core %s missing (got %v)", c, crits)
		}
	}
}

func TestQueueClassesReachDRAM(t *testing.T) {
	sys := core.Build(fastCfg())
	sys.RunFrames(1)
	var perClass [txn.NumClasses]uint64
	for _, ctrl := range sys.Controllers() {
		st := ctrl.Stats()
		for i := 0; i < txn.NumClasses; i++ {
			perClass[i] += st.PerClass[i]
		}
	}
	for i, n := range perClass {
		if n == 0 {
			t.Errorf("queue class %v served no transactions", txn.Class(i))
		}
	}
}

// TestNegativeFrameCountIsRefused: a negative frame count converted to a
// cycle count wraps to a horizon near 2^64, so the run would never end.
func TestNegativeFrameCountIsRefused(t *testing.T) {
	sys := core.Build(fastCfg())
	if err := sys.RunFramesChecked(-1); err == nil {
		t.Fatal("RunFramesChecked(-1) returned nil")
	}
	if sys.Now() != 0 {
		t.Fatalf("refused run advanced the clock to %d", sys.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunFrames(-1) did not panic")
		}
	}()
	sys.RunFrames(-1)
}
