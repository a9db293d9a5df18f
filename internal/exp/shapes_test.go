package exp

import (
	"testing"

	"sara/internal/config"
	"sara/internal/memctrl"
)

// These tests assert the qualitative shapes of the paper's evaluation —
// who fails, who passes, which orderings hold — on the calibrated
// workload. EXPERIMENTS.md records the quantitative values and the known
// deviations.

func TestFig5Shapes(t *testing.T) {
	t.Parallel()
	runs := Fig5(FastOptions())
	byPolicy := map[memctrl.PolicyKind]PolicyRun{}
	for _, r := range runs {
		byPolicy[r.Policy] = r
	}

	fcfs := byPolicy[memctrl.FCFS]
	if fcfs.MinNPI["Display"] >= FailNPI {
		t.Errorf("FCFS: display min NPI %.3f, want a clear failure (paper: 0.13)",
			fcfs.MinNPI["Display"])
	}
	for _, core := range []string{"Image Proc.", "Video Codec", "Rotator", "Camera"} {
		if !fcfs.Passed(core) {
			t.Errorf("FCFS: %s min NPI %.3f, want pass (bursty media grab bandwidth early)",
				core, fcfs.MinNPI[core])
		}
	}

	rr := byPolicy[memctrl.RR]
	if rr.MinNPI["Display"] >= FailNPI || rr.MinNPI["Camera"] >= FailNPI {
		t.Errorf("RR: display %.3f / camera %.3f, want both to fail (paper: <0.1)",
			rr.MinNPI["Display"], rr.MinNPI["Camera"])
	}
	for _, core := range []string{"GPS", "WiFi", "USB", "DSP"} {
		if rr.MinNPI[core] < FailNPI {
			t.Errorf("RR: %s min NPI %.3f, want pass (separate transaction queue)",
				core, rr.MinNPI[core])
		}
	}

	fr := byPolicy[memctrl.FrameRate]
	for _, core := range []string{"Image Proc.", "Video Codec", "Rotator", "Display", "Camera"} {
		if fr.MinNPI[core] < FailNPI {
			t.Errorf("frame-rate QoS: media core %s min NPI %.3f, want pass",
				core, fr.MinNPI[core])
		}
	}

	qos := byPolicy[memctrl.QoS]
	for core, v := range qos.MinNPI {
		if v < PassNPI {
			t.Errorf("priority QoS: %s min NPI %.3f, want every core to pass (the headline result)",
				core, v)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	t.Parallel()
	runs := Fig6(FastOptions())
	byPolicy := map[memctrl.PolicyKind]PolicyRun{}
	for _, r := range runs {
		byPolicy[r.Policy] = r
	}

	if v := byPolicy[memctrl.FCFS].MinNPI["Display"]; v >= FailNPI {
		t.Errorf("FCFS case B: display min NPI %.3f, want failure", v)
	}
	if v := byPolicy[memctrl.RR].MinNPI["Display"]; v >= FailNPI {
		t.Errorf("RR case B: display min NPI %.3f, want failure", v)
	}
	qos := byPolicy[memctrl.QoS]
	for core, v := range qos.MinNPI {
		if v < PassNPI {
			t.Errorf("priority QoS case B: %s min NPI %.3f, want pass", core, v)
		}
	}
}

func TestFig7Monotonicity(t *testing.T) {
	t.Parallel()
	hists := Fig7(FastOptions())
	if len(hists) != 5 {
		t.Fatalf("got %d frequency points, want 5", len(hists))
	}
	// As frequency drops from 1700 to 1300, low-priority time must shrink
	// and high-priority time must grow (the paper's trend).
	first, last := hists[0], hists[len(hists)-1]
	if first.DataRateMTps != 1700 || last.DataRateMTps != 1300 {
		t.Fatalf("sweep endpoints %d..%d, want 1700..1300", first.DataRateMTps, last.DataRateMTps)
	}
	if last.LowShare() >= first.LowShare() {
		t.Errorf("low-priority share did not shrink: %.3f at 1700 vs %.3f at 1300",
			first.LowShare(), last.LowShare())
	}
	if last.HighShare() <= first.HighShare() {
		t.Errorf("high-priority share did not grow: %.3f at 1700 vs %.3f at 1300",
			first.HighShare(), last.HighShare())
	}
}

func TestFig8Shapes(t *testing.T) {
	t.Parallel()
	results := Fig8(FastOptions())
	bw := map[memctrl.PolicyKind]float64{}
	for _, r := range results {
		bw[r.Policy] = r.BandwidthGBps
		if r.BandwidthGBps < 10 || r.BandwidthGBps > 30 {
			t.Errorf("%v bandwidth %.2f GB/s outside the plausible LPDDR4 band", r.Policy, r.BandwidthGBps)
		}
	}
	// RR shatters row locality: strictly the lowest bandwidth.
	for _, p := range []memctrl.PolicyKind{memctrl.FCFS, memctrl.QoS, memctrl.QoSRB, memctrl.FRFCFS} {
		if bw[memctrl.RR] >= bw[p] {
			t.Errorf("RR bandwidth %.2f not below %v's %.2f", bw[memctrl.RR], p, bw[p])
		}
	}
	// Policy 2 must beat Policy 1 (the row-buffer optimization pays).
	if bw[memctrl.QoSRB] <= bw[memctrl.QoS] {
		t.Errorf("QoS-RB %.2f not above QoS %.2f (paper: +10%%)",
			bw[memctrl.QoSRB], bw[memctrl.QoS])
	}
	// QoS-RB and FR-FCFS land within a few percent of each other
	// (paper: QoS-RB within 1% of FR-FCFS).
	ratio := bw[memctrl.QoSRB] / bw[memctrl.FRFCFS]
	if ratio < 0.93 || ratio > 1.08 {
		t.Errorf("QoS-RB/FR-FCFS bandwidth ratio %.3f, want within a few %% of 1", ratio)
	}
}

func TestFig9Shapes(t *testing.T) {
	t.Parallel()
	runs := Fig9(FastOptions())
	frfcfs, qosrb := runs[0], runs[1]
	if frfcfs.Policy != memctrl.FRFCFS || qosrb.Policy != memctrl.QoSRB {
		t.Fatal("unexpected policy order from Fig9")
	}
	if v := frfcfs.MinNPI["Display"]; v >= FailNPI {
		t.Errorf("FR-FCFS: display min NPI %.3f, want failure (bandwidth at QoS expense)", v)
	}
	for core, v := range qosrb.MinNPI {
		if v < PassNPI {
			t.Errorf("QoS-RB: %s min NPI %.3f, want no QoS degradation", core, v)
		}
	}
	// QoS-RB must not trail FR-FCFS's bandwidth by much while fixing QoS.
	if qosrb.BandwidthGBps < 0.9*frfcfs.BandwidthGBps {
		t.Errorf("QoS-RB bandwidth %.2f far below FR-FCFS %.2f",
			qosrb.BandwidthGBps, frfcfs.BandwidthGBps)
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a := RunPolicy(config.CaseA, memctrl.QoS, FastOptions())
	b := RunPolicy(config.CaseA, memctrl.QoS, FastOptions())
	for core, v := range a.MinNPI {
		if b.MinNPI[core] != v {
			t.Fatalf("non-deterministic NPI for %s: %v vs %v", core, v, b.MinNPI[core])
		}
	}
	if a.BandwidthGBps != b.BandwidthGBps {
		t.Fatalf("non-deterministic bandwidth: %v vs %v", a.BandwidthGBps, b.BandwidthGBps)
	}
}

func TestFormatters(t *testing.T) {
	t.Parallel()
	run := RunPolicy(config.CaseA, memctrl.QoS, FastOptions())
	if s := FormatRun(run); len(s) == 0 {
		t.Fatal("empty run report")
	}
	if s := FormatFig7(Fig7(FastOptions())[:1]); len(s) == 0 {
		t.Fatal("empty Fig7 report")
	}
	if s := FormatFig8([]BandwidthResult{{Policy: memctrl.RR, BandwidthGBps: 15}}); len(s) == 0 {
		t.Fatal("empty Fig8 report")
	}
}
