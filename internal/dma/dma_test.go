package dma

import (
	"fmt"
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

// OnCredit implements noc.Sink; a sink that is never full never returns
// a credit.
func (f sinkFunc) OnCredit(noc.Waker) {}

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

// TestNextActivityReadsLiveState pins the event-driven injection
// contract: the hint reads the live queue, window and port. It is due now
// while a request could be injected, and reports no activity while the
// injection loop would stop (queue empty, window full, port full), until
// an enqueue, a delivery or a port credit clears the blocker.
func TestNextActivityReadsLiveState(t *testing.T) {
	r := newRig(1) // window 1, MaxPending 2
	if _, ok := r.engine.NextActivity(0); ok {
		t.Fatal("an engine with nothing pending must report no activity")
	}
	r.engine.Enqueue(txn.Read, 0, 128)
	if at, ok := r.engine.NextActivity(3); !ok || at != 3 {
		t.Fatalf("with a request pending NextActivity = (%d, %v), want (3, true)", at, ok)
	}
	r.engine.Tick(3)
	if got := r.engine.Outstanding(); got != 1 {
		t.Fatalf("tick injected %d, want 1", got)
	}
	r.engine.Enqueue(txn.Read, 128, 128) // queued behind the window
	r.engine.Tick(4)                     // window full: stalls
	if _, ok := r.engine.NextActivity(5); ok {
		t.Fatal("a window-blocked engine must wait for a delivery")
	}
	r.drain(t, 1)
	r.engine.Deliver(r.out[0], 7)
	if at, ok := r.engine.NextActivity(7); !ok || at != 7 {
		t.Fatalf("after delivery NextActivity = (%d, %v), want (7, true)", at, ok)
	}

	// Port full: a window of 16 outlasts the 8-deep port.
	r = newRig(16)
	var credits []sim.Cycle
	r.engine.SetTrace(Trace{Wake: func(_ int, at sim.Cycle, cause byte) {
		if cause == 'C' {
			credits = append(credits, at)
		}
	}})
	for i := 0; i < 9; i++ {
		r.engine.Enqueue(txn.Read, txn.Addr(i*128), 128)
	}
	r.engine.Tick(0)
	if _, ok := r.engine.NextActivity(1); ok || r.engine.Pending() != 1 {
		t.Fatalf("a port-blocked engine (pending %d) must wait for a credit", r.engine.Pending())
	}
	r.router.Tick(1) // pops the full port: the credit is usable from cycle 2
	if at, ok := r.engine.NextActivity(2); !ok || at != 2 || fmt.Sprint(credits) != "[2]" {
		t.Fatalf("after the credit NextActivity = (%d, %v), credit wakes %v; want (2, true), [2]", at, ok, credits)
	}
}
