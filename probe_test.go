package sara_test

import (
	"reflect"
	"sync"
	"testing"

	"sara"
	"sara/internal/sim"
)

// probeLog is one collector's view of a run's trace edges.
type probeLog struct {
	grants  []tracedGrant
	credits []tracedCredit
	cmds    []tracedCmd
	injs    []tracedInj
}

// probedRun builds cfg, subscribes a private collector to the System's
// probes and runs it for cycles.
func probedRun(cfg sara.Config, cycles sara.Cycle) *probeLog {
	lg := &probeLog{}
	sys := sara.Build(cfg)
	sys.Probe(sara.Probes{
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			lg.grants = append(lg.grants, tracedGrant{name, now, port, out, id})
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			lg.credits = append(lg.credits, tracedCredit{name, now, port, wasFull})
		},
		Command: func(ch int, now sim.Cycle, id uint64, kind byte) {
			lg.cmds = append(lg.cmds, tracedCmd{ch, now, id, kind})
		},
		Inject: func(now sim.Cycle, src int, id uint64, addr uint64) {
			lg.injs = append(lg.injs, tracedInj{now, src, id, addr})
		},
	})
	sys.Run(cycles)
	return lg
}

// TestProbeIsolationConcurrentSystems runs two Systems built from one
// config at once on two goroutines, each with its own probe collector.
// Probes belong to their System, so each collector must see exactly the
// grant/credit/command/inject stream of a solo run — no event of the
// other System, none lost.
func TestProbeIsolationConcurrentSystems(t *testing.T) {
	cfg := sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS), sara.WithRefresh(true))
	const cycles = sara.Cycle(30000)
	solo := probedRun(cfg, cycles)
	if len(solo.grants) == 0 || len(solo.credits) == 0 || len(solo.cmds) == 0 || len(solo.injs) == 0 {
		t.Fatalf("vacuous solo run: %d grants, %d credits, %d commands, %d injections",
			len(solo.grants), len(solo.credits), len(solo.cmds), len(solo.injs))
	}

	var logs [2]*probeLog
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = probedRun(cfg, cycles)
		}()
	}
	wg.Wait()
	for i, lg := range logs {
		if !reflect.DeepEqual(lg.grants, solo.grants) {
			t.Errorf("system %d: grant stream differs from the solo run (%d vs %d events)", i, len(lg.grants), len(solo.grants))
		}
		if !reflect.DeepEqual(lg.credits, solo.credits) {
			t.Errorf("system %d: credit stream differs from the solo run (%d vs %d events)", i, len(lg.credits), len(solo.credits))
		}
		if !reflect.DeepEqual(lg.cmds, solo.cmds) {
			t.Errorf("system %d: command stream differs from the solo run (%d vs %d events)", i, len(lg.cmds), len(solo.cmds))
		}
		if !reflect.DeepEqual(lg.injs, solo.injs) {
			t.Errorf("system %d: injection stream differs from the solo run (%d vs %d events)", i, len(lg.injs), len(solo.injs))
		}
	}
}

// TestProbeSecondSubscriptionPanics pins the one-subscriber contract: a
// System's trace edges hold one probe set, and a second Probe call panics
// instead of silently replacing the first.
func TestProbeSecondSubscriptionPanics(t *testing.T) {
	sys := sara.Build(sara.Camcorder(sara.CaseA))
	sys.Probe(sara.Probes{Grant: func(string, sim.Cycle, int, int, uint64) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("second Probe on one System did not panic")
		}
	}()
	sys.Probe(sara.Probes{})
}
