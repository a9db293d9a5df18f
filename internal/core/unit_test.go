package core_test

import (
	"testing"

	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// scriptStep is one request a scriptSource enqueues at cycle at.
type scriptStep struct {
	at   sim.Cycle
	kind txn.Kind
	addr txn.Addr
}

// scriptSource is a traffic source that enqueues a fixed script of
// requests, each at its cycle, and is dormant in between.
type scriptSource struct {
	engine *dma.Engine
	steps  []scriptStep // ascending by at
}

func (s *scriptSource) Name() string { return "script" }

func (s *scriptSource) Tick(now sim.Cycle) {
	for len(s.steps) > 0 && s.steps[0].at <= now {
		s.engine.Enqueue(s.steps[0].kind, s.steps[0].addr, 128)
		s.steps = s.steps[1:]
	}
}

func (s *scriptSource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if len(s.steps) == 0 {
		return 0, false
	}
	return max(s.steps[0].at, now), true
}

// drain ticks a router every third cycle from cycle 6 on and sleeps in
// between.
type drain struct{ r *noc.Router }

func (d drain) Tick(now sim.Cycle) {
	if now >= 6 && now%3 == 0 {
		d.r.Tick(now)
	}
}

func (d drain) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	at := max(now, 6)
	return at + (3-at%3)%3, true
}

type sinkFunc func(*txn.Transaction, sim.Cycle)

func (f sinkFunc) CanAccept(*txn.Transaction) bool           { return true }
func (f sinkFunc) Accept(tr *txn.Transaction, now sim.Cycle) { f(tr, now) }
func (f sinkFunc) OnCredit(noc.Waker)                        {}

// TestInjectionWakeDifferential scripts a unit whose source and engine
// exercise all three injection blockers — port full, window full, queue
// empty — and their clearing events (an enqueue in the unit's tick, a
// delivery, a port credit), and requires the unit ticked by the kernel's
// active list only when its wake comes due to match the per-cycle
// reference (the same unit on a reference-mode kernel)
// injection-for-injection and stall-for-stall.
func TestInjectionWakeDifferential(t *testing.T) {
	t.Parallel()
	type inj struct {
		now sim.Cycle
		id  uint64
	}
	run := func(reference bool) (dma.Stats, []inj, uint64) {
		var injs []inj
		var k sim.Kernel
		k.SetReference(reference)

		var id uint64
		var engine *dma.Engine
		// Completions come back in order, one per cycle from cycle 12 on,
		// as kernel events that fire before the cycle's ticks, as in a
		// System.
		last := sim.Cycle(11)
		sink := sinkFunc(func(tr *txn.Transaction, now sim.Cycle) {
			last = max(last+1, now+1)
			k.At(last, func(at sim.Cycle) { engine.Deliver(tr, at) })
		})
		// Port depth 2 so the port-full blocker engages quickly.
		router := noc.NewRouter("t", noc.Params{PortDepth: 2, Arb: noc.ArbFCFS}, 1, []noc.Sink{sink}, nil)
		engine = dma.New(dma.Config{Name: "t", Core: "T", Class: txn.ClassMedia, Window: 3, MaxPending: 8},
			0, &id, router.Port(0), 0)
		engine.SetTrace(dma.Trace{Inject: func(now sim.Cycle, _ int, id uint64, _ uint64) {
			injs = append(injs, inj{now, id})
		}})
		src := &scriptSource{engine: engine}
		for i := 0; i < 5; i++ {
			src.steps = append(src.steps, scriptStep{0, txn.Read, txn.Addr(i * 128)})
		}
		src.steps = append(src.steps, scriptStep{20, txn.Write, 4096})

		k.Register(&core.Unit{Engine: engine, Source: src})
		// The router drains sporadically behind the unit, returning port
		// credits.
		k.Register(drain{router})
		k.Run(40)
		return engine.Stats(), injs, k.SkippedCycles()
	}

	refStats, refInjs, _ := run(true)
	fastStats, fastInjs, skipped := run(false)
	if refStats != fastStats {
		t.Fatalf("stats differ:\n  reference: %+v\n  event-driven: %+v", refStats, fastStats)
	}
	if len(refInjs) != len(fastInjs) {
		t.Fatalf("injection counts differ: %d vs %d", len(refInjs), len(fastInjs))
	}
	for i := range refInjs {
		if refInjs[i] != fastInjs[i] {
			t.Fatalf("injection %d differs: reference %+v, event-driven %+v", i, refInjs[i], fastInjs[i])
		}
	}
	if refStats.InjectStalls == 0 || refStats.Injected != 6 || refStats.Completed == 0 || skipped == 0 {
		t.Fatalf("vacuous scenario: %+v, %d cycles skipped", refStats, skipped)
	}
}
