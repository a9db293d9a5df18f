package dma

import (
	"testing"

	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// rig wires an engine into a single-port router draining into a capture
// sink, so tests can observe injected transactions.
type rig struct {
	engine *Engine
	router *noc.Router
	out    []*txn.Transaction
}

func newRig(window int) *rig {
	r := &rig{}
	var id uint64
	sink := sinkFunc(func(tr *txn.Transaction) { r.out = append(r.out, tr) })
	r.router = noc.NewRouter("t", noc.Params{PortDepth: 8, Arb: noc.ArbFCFS}, 1, []noc.Sink{sink}, nil)
	r.engine = New(Config{Name: "t", Core: "T", Class: txn.ClassMedia, Window: window},
		0, &id, r.router.Port(0), 0)
	return r
}

// drain runs router ticks until n transactions have been captured.
func (r *rig) drain(t *testing.T, n int) {
	t.Helper()
	for now := sim.Cycle(1); len(r.out) < n && now < 1000; now++ {
		r.router.Tick(now)
	}
	if len(r.out) < n {
		t.Fatalf("drained %d transactions, want %d", len(r.out), n)
	}
}

type sinkFunc func(*txn.Transaction)

func (f sinkFunc) CanAccept(*txn.Transaction) bool         { return true }
func (f sinkFunc) Accept(tr *txn.Transaction, _ sim.Cycle) { f(tr) }

func TestWindowLimitsOutstanding(t *testing.T) {
	r := newRig(2)
	for i := 0; i < 4; i++ { // MaxPending defaults to 2*window = 4
		if !r.engine.Enqueue(txn.Read, txn.Addr(i*128), 128) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	r.engine.Tick(0)
	if r.engine.Outstanding() != 2 {
		t.Fatalf("outstanding %d, want window 2", r.engine.Outstanding())
	}
	if r.engine.Pending() != 2 {
		t.Fatalf("pending %d, want 2", r.engine.Pending())
	}
	// Completions open the window again.
	r.drain(t, 2)
	for _, tr := range r.out {
		r.engine.Deliver(tr, 10)
	}
	if r.engine.Outstanding() != 0 {
		t.Fatalf("outstanding %d after delivery, want 0", r.engine.Outstanding())
	}
	r.engine.Tick(11)
	if r.engine.Outstanding() != 2 {
		t.Fatal("window did not refill after completions")
	}
}

func TestPriorityStampedAtInjection(t *testing.T) {
	r := newRig(4)
	r.engine.SetPriority(5)
	r.engine.Enqueue(txn.Write, 0, 128)
	r.engine.Tick(0)
	r.engine.SetPriority(1) // must not affect the already-injected txn
	r.drain(t, 1)
	got := r.out[0]
	if got.Priority != 5 {
		t.Fatalf("stamped priority %d, want 5", got.Priority)
	}
	if got.Kind != txn.Write || got.Issue != 0 || got.Class != txn.ClassMedia {
		t.Fatalf("transaction fields wrong: %+v", got)
	}
}

func TestUrgentProbe(t *testing.T) {
	r := newRig(4)
	r.engine.SetUrgentProbe(func(now sim.Cycle) bool { return true })
	r.engine.Enqueue(txn.Read, 0, 128)
	r.engine.Tick(0)
	r.drain(t, 1)
	if !r.out[0].Urgent {
		t.Fatal("urgent flag not stamped")
	}
}

func TestEnqueueBackpressure(t *testing.T) {
	r := newRig(2) // MaxPending defaults to 2*window = 4
	for i := 0; i < 4; i++ {
		if !r.engine.Enqueue(txn.Read, txn.Addr(i*128), 128) {
			t.Fatalf("enqueue %d rejected below MaxPending", i)
		}
	}
	if r.engine.Enqueue(txn.Read, 0, 128) {
		t.Fatal("enqueue accepted beyond MaxPending")
	}
	if r.engine.PendingSpace() != 0 {
		t.Fatalf("pending space %d, want 0", r.engine.PendingSpace())
	}
}

func TestStatsAndLatency(t *testing.T) {
	r := newRig(4)
	r.engine.Enqueue(txn.Read, 0, 128)
	r.engine.Tick(0)
	r.drain(t, 1)
	r.engine.Deliver(r.out[0], 100)
	st := r.engine.Stats()
	if st.Completed != 1 || st.BytesCompleted != 128 {
		t.Fatalf("stats %+v", st)
	}
	if got := r.engine.AverageLatency(); got != 100 {
		t.Fatalf("average latency %v, want 100", got)
	}
}

func TestForeignDeliveryPanics(t *testing.T) {
	r := newRig(2)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign delivery accepted")
		}
	}()
	r.engine.Deliver(&txn.Transaction{ID: 1, Source: 99}, 0)
}

func TestCompletionCallbacksFire(t *testing.T) {
	r := newRig(2)
	calls := 0
	r.engine.OnComplete(func(*txn.Transaction, sim.Cycle) { calls++ })
	r.engine.OnComplete(func(*txn.Transaction, sim.Cycle) { calls++ })
	r.engine.Enqueue(txn.Read, 0, 128)
	r.engine.Tick(0)
	r.drain(t, 1)
	r.engine.Deliver(r.out[0], 5)
	if calls != 2 {
		t.Fatalf("completion callbacks fired %d times, want 2", calls)
	}
}

// TestNextActivityIsCachedWake pins the event-driven injection contract:
// the hint is an O(1) read of the cached wake, parked at never whenever
// the injection loop stopped (queue empty, window full, port full) and
// re-armed by deliveries and port credits. Fresh enqueues re-arm
// nothing — the Tick gate reads the live queue, and the enqueue cycle
// always executes because the enqueuing source was active in it.
func TestNextActivityIsCachedWake(t *testing.T) {
	r := newRig(1) // window 1, MaxPending 2
	if _, ok := r.engine.NextActivity(0); !ok {
		t.Fatal("a fresh engine must report activity (initial wake is cycle 0)")
	}
	r.engine.Tick(0) // empty queue: parks at never
	if _, ok := r.engine.NextActivity(1); ok {
		t.Fatal("an idle engine must park its wake at never")
	}
	r.engine.Enqueue(txn.Read, 0, 128)
	r.engine.Tick(3) // the live-queue gate routes the fresh request to the loop
	if got := r.engine.Outstanding(); got != 1 {
		t.Fatalf("enqueue-cycle tick injected %d, want 1 (live-queue gate)", got)
	}
	r.engine.Enqueue(txn.Read, 128, 128) // queued behind the window
	r.engine.Tick(4)                     // window full: stalls, parks at never
	if _, ok := r.engine.NextActivity(5); ok {
		t.Fatal("a window-blocked engine must park until a delivery")
	}
	r.drain(t, 1)
	r.engine.Deliver(r.out[0], 7) // delivery re-arms onto its cycle
	if at, ok := r.engine.NextActivity(7); !ok || at != 7 {
		t.Fatalf("after delivery NextActivity = (%d, %v), want (7, true)", at, ok)
	}
}

// TestInjectionWakeDifferential scripts a scenario that exercises all
// three injection blockers — port full, window full, queue empty — and
// their re-arming events, and requires the event-driven engine to match
// the per-cycle reference — the same engine and router registered with a
// reference-mode kernel — injection-for-injection and stall-for-stall.
func TestInjectionWakeDifferential(t *testing.T) {
	t.Parallel()
	type inj struct {
		now sim.Cycle
		id  uint64
	}
	run := func(force bool) (Stats, []inj) {
		var injs []inj

		var id uint64
		var out []*txn.Transaction
		sink := sinkFunc(func(tr *txn.Transaction) { out = append(out, tr) })
		// Port depth 2 so the port-full blocker engages quickly.
		router := noc.NewRouter("t", noc.Params{PortDepth: 2, Arb: noc.ArbFCFS}, 1, []noc.Sink{sink}, nil)
		engine := New(Config{Name: "t", Core: "T", Class: txn.ClassMedia, Window: 3, MaxPending: 8},
			0, &id, router.Port(0), 0)
		var k sim.Kernel
		k.SetReference(force)
		k.Register(engine)
		k.Register(router)
		engine.SetTrace(Trace{Inject: func(now sim.Cycle, _ int, id uint64, _ uint64) {
			injs = append(injs, inj{now, id})
		}})

		delivered := 0
		for now := sim.Cycle(0); now < 40; now++ {
			switch now {
			case 0:
				for i := 0; i < 5; i++ {
					engine.Enqueue(txn.Read, txn.Addr(i*128), 128)
				}
			case 20:
				engine.Enqueue(txn.Write, 4096, 128)
			}
			if now >= 12 && delivered < len(out) {
				// Hand one completion back per cycle from cycle 12 on.
				engine.Deliver(out[delivered], now)
				delivered++
			}
			engine.Tick(now)
			if now >= 5 && now%3 == 0 {
				// The router drains sporadically, returning port credits.
				router.Tick(now)
			}
		}
		return engine.Stats(), injs
	}

	refStats, refInjs := run(true)
	fastStats, fastInjs := run(false)
	if refStats != fastStats {
		t.Fatalf("stats differ:\n  force-scan: %+v\n  event-driven: %+v", refStats, fastStats)
	}
	if len(refInjs) != len(fastInjs) {
		t.Fatalf("injection counts differ: %d vs %d", len(refInjs), len(fastInjs))
	}
	for i := range refInjs {
		if refInjs[i] != fastInjs[i] {
			t.Fatalf("injection %d differs: force-scan %+v, event-driven %+v", i, refInjs[i], fastInjs[i])
		}
	}
	if refStats.InjectStalls == 0 || refStats.Injected != 6 || refStats.Completed == 0 {
		t.Fatalf("vacuous scenario: %+v", refStats)
	}
}
