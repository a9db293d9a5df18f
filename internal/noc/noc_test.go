package noc

import (
	"testing"

	"sara/internal/sim"
	"sara/internal/txn"
)

// collectSink records accepted transactions and can simulate backpressure.
type collectSink struct {
	got  []*txn.Transaction
	full bool
}

func (s *collectSink) CanAccept(*txn.Transaction) bool { return !s.full }
func (s *collectSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.got = append(s.got, t)
}

func params(arb ArbKind) Params {
	return Params{PortDepth: 4, HopLatency: 0, RespLatency: 12, Arb: arb, AgingT: 0}
}

func tx(id uint64, prio txn.Priority) *txn.Transaction {
	return &txn.Transaction{ID: id, Priority: prio}
}

func TestPortBackpressure(t *testing.T) {
	p := NewPort(2)
	p.Push(tx(1, 0), 0, 0)
	p.Push(tx(2, 0), 0, 0)
	if p.CanAccept() {
		t.Fatal("full port accepts")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push to full port did not panic")
		}
	}()
	p.Push(tx(3, 0), 0, 0)
}

func TestRouterForwardsOnePerCycle(t *testing.T) {
	sink := &collectSink{}
	r := NewRouter("t", params(ArbFCFS), 2, []Sink{sink}, nil)
	r.Port(0).Push(tx(1, 0), 0, 0)
	r.Port(1).Push(tx(2, 0), 1, 1)
	r.Tick(1)
	if len(sink.got) != 1 {
		t.Fatalf("forwarded %d packets in one cycle, want 1", len(sink.got))
	}
	r.Tick(2)
	if len(sink.got) != 2 {
		t.Fatalf("forwarded %d packets after two cycles, want 2", len(sink.got))
	}
}

func TestHopLatencyGatesArbitration(t *testing.T) {
	sink := &collectSink{}
	pr := params(ArbFCFS)
	pr.HopLatency = 3
	r := NewRouter("t", pr, 1, []Sink{sink}, nil)
	PortSink{Port: r.Port(0), Hop: pr.HopLatency}.Accept(tx(1, 0), 0)
	r.Tick(1)
	r.Tick(2)
	if len(sink.got) != 0 {
		t.Fatal("packet forwarded before finishing its hop")
	}
	r.Tick(3)
	if len(sink.got) != 1 {
		t.Fatal("packet not forwarded after the hop")
	}
}

func TestFCFSArbitrationOldestHeadWins(t *testing.T) {
	sink := &collectSink{}
	r := NewRouter("t", params(ArbFCFS), 2, []Sink{sink}, nil)
	r.Port(1).Push(tx(2, 0), 0, 0) // older
	r.Port(0).Push(tx(1, 0), 5, 5)
	r.Tick(6)
	if sink.got[0].ID != 2 {
		t.Fatalf("FCFS granted %d first, want the older head 2", sink.got[0].ID)
	}
}

func TestPriorityArbitration(t *testing.T) {
	sink := &collectSink{}
	r := NewRouter("t", params(ArbPriority), 3, []Sink{sink}, nil)
	r.Port(0).Push(tx(1, 2), 0, 0)
	r.Port(1).Push(tx(2, 7), 1, 1)
	r.Port(2).Push(tx(3, 5), 2, 2)
	for i := sim.Cycle(3); len(sink.got) < 3; i++ {
		r.Tick(i)
	}
	if sink.got[0].ID != 2 || sink.got[1].ID != 3 || sink.got[2].ID != 1 {
		t.Fatalf("priority order %v, want [2 3 1]", ids(sink.got))
	}
}

func TestRRArbitrationFairness(t *testing.T) {
	sink := &collectSink{}
	r := NewRouter("t", params(ArbRR), 2, []Sink{sink}, nil)
	// Keep both ports backlogged; grants must alternate.
	for i := 0; i < 4; i++ {
		r.Port(0).Push(tx(uint64(10+i), 0), 0, 0)
		r.Port(1).Push(tx(uint64(20+i), 0), 0, 0)
	}
	for i := sim.Cycle(0); len(sink.got) < 8; i++ {
		r.Tick(i)
	}
	for i := 1; i < 8; i++ {
		if (sink.got[i].ID < 20) == (sink.got[i-1].ID < 20) {
			t.Fatalf("RR grants did not alternate: %v", ids(sink.got))
		}
	}
}

func TestFrameRateArbitrationUrgentFirst(t *testing.T) {
	sink := &collectSink{}
	r := NewRouter("t", params(ArbFrameRate), 2, []Sink{sink}, nil)
	r.Port(0).Push(tx(1, 0), 0, 0)
	urgent := tx(2, 0)
	urgent.Urgent = true
	r.Port(1).Push(urgent, 5, 5)
	r.Tick(6)
	if sink.got[0].ID != 2 {
		t.Fatal("urgent packet did not win frame-rate arbitration")
	}
}

func TestBlockedDownstreamStalls(t *testing.T) {
	sink := &collectSink{full: true}
	r := NewRouter("t", params(ArbFCFS), 1, []Sink{sink}, nil)
	r.Port(0).Push(tx(1, 0), 0, 0)
	r.Tick(1)
	if len(sink.got) != 0 {
		t.Fatal("forwarded into a full sink")
	}
	if r.Stalls() != 1 {
		t.Fatalf("stalls %d, want 1", r.Stalls())
	}
	sink.full = false
	r.Tick(2)
	if len(sink.got) != 1 {
		t.Fatal("did not forward once the sink freed up")
	}
	if r.Forwarded() != 1 {
		t.Fatalf("forwarded counter %d, want 1", r.Forwarded())
	}
}

func TestMultiOutputRouting(t *testing.T) {
	s0, s1 := &collectSink{}, &collectSink{}
	route := func(t *txn.Transaction) int { return int(t.Addr & 1) }
	r := NewRouter("root", params(ArbFCFS), 2, []Sink{s0, s1}, route)
	a := tx(1, 0)
	a.Addr = 0
	b := tx(2, 0)
	b.Addr = 1
	r.Port(0).Push(a, 0, 0)
	r.Port(1).Push(b, 0, 0)
	// Both outputs can grant in the same cycle.
	r.Tick(1)
	if len(s0.got) != 1 || len(s1.got) != 1 {
		t.Fatalf("per-output grants %d/%d, want 1/1", len(s0.got), len(s1.got))
	}
}

func TestAgingBeatsPriority(t *testing.T) {
	sink := &collectSink{}
	pr := params(ArbPriority)
	pr.AgingT = 50
	r := NewRouter("t", pr, 2, []Sink{sink}, nil)
	r.Port(0).Push(tx(1, 0), 0, 0) // old, low priority
	r.Port(1).Push(tx(2, 7), 60, 60)
	r.Tick(60)
	if sink.got[0].ID != 1 {
		t.Fatal("over-age packet lost to priority")
	}
}

// --- event-driven arbitration: dormancy windows and credit returns ---

// next is NextActivity unpacked for terse assertions.
func next(r *Router, now sim.Cycle) (sim.Cycle, bool) { return r.NextActivity(now) }

func TestEmptyRouterReportsNoActivity(t *testing.T) {
	r := NewRouter("t", params(ArbFCFS), 2, []Sink{&collectSink{}}, nil)
	if _, ok := next(r, 0); ok {
		t.Fatal("empty router reported activity")
	}
}

func TestPushReArmsDormantRouter(t *testing.T) {
	sink := &collectSink{}
	r := NewRouter("t", params(ArbFCFS), 1, []Sink{sink}, nil)
	r.Port(0).Push(tx(1, 0), 0, 7) // still traversing its link until cycle 7
	if at, ok := next(r, 1); !ok || at != 7 {
		t.Fatalf("NextActivity = (%d, %v), want (7, true)", at, ok)
	}
	// Ticks before the head is arbitrable must not grant (dormant path).
	for c := sim.Cycle(1); c < 7; c++ {
		r.Tick(c)
	}
	if len(sink.got) != 0 {
		t.Fatal("granted before the head finished its hop")
	}
	// A second injection with an earlier readyAt pulls the wake forward.
	r.Port(0).Push(tx(2, 0), 0, 3)
	if at, ok := next(r, 1); !ok || at != 3 {
		t.Fatalf("after earlier push NextActivity = (%d, %v), want (3, true)", at, ok)
	}
	r.Tick(7)
	if len(sink.got) != 1 || sink.got[0].ID != 1 {
		t.Fatalf("granted %v, want head 1 at cycle 7", ids(sink.got))
	}
}

// TestCreditReturnWakesBlockedUpstream chains two routers through a
// PortSink and checks the full dormancy round trip: the upstream router
// sleeps (NextActivity false) while its head is blocked on the full
// downstream port, and the downstream pop returns a credit that re-arms
// the upstream wake at exactly pop+1.
func TestCreditReturnWakesBlockedUpstream(t *testing.T) {
	pr := params(ArbFCFS)
	pr.PortDepth = 2
	final := &collectSink{full: true}
	down := NewRouter("down", pr, 1, []Sink{final}, nil)
	up := NewRouter("up", pr, 1, []Sink{PortSink{Port: down.Port(0), Hop: 0}}, nil)

	// Fill the downstream port (depth 2) through upstream grants, plus one
	// more packet that stays blocked upstream.
	up.Port(0).Push(tx(1, 0), 0, 0)
	up.Port(0).Push(tx(2, 0), 0, 0)
	up.Tick(0)
	up.Port(0).Push(tx(3, 0), 0, 0)
	up.Tick(1)
	if down.Port(0).Len() != 2 {
		t.Fatalf("downstream port holds %d, want 2 (full)", down.Port(0).Len())
	}
	up.Tick(2) // head 3 is ready but the downstream port is full
	if _, ok := next(up, 3); ok {
		t.Fatal("upstream blocked on a credited sink must report no activity")
	}
	stallsBefore := up.Stalls()

	// Downstream unblocks and pops at cycle 5: the credit must re-arm the
	// upstream wake to cycle 6.
	final.full = false
	down.Tick(5)
	if at, ok := next(up, 5); !ok || at != 6 {
		t.Fatalf("after credit NextActivity = (%d, %v), want (6, true)", at, ok)
	}
	up.Tick(6)
	if down.Port(0).Len() != 2 {
		t.Fatal("upstream did not grant into the credited slot")
	}
	// Cycles 3..5 had a ready head and no grant: the dormant path must
	// have accrued them (3, 4) plus the blocked scan at 6... the exact
	// per-cycle set is pinned by the system-level stall equivalence test;
	// here just require the counter moved while asleep.
	up.Tick(7)
	if up.Stalls() <= stallsBefore {
		t.Fatalf("blocked dormant stretch accrued no stalls (%d -> %d)", stallsBefore, up.Stalls())
	}
}

// TestUncreditedSinkIsPolled pins the compatibility path: a ready head
// blocked on a sink that cannot return credits (plain Sink) keeps the
// router polling every cycle, so unblocking the sink out-of-band is
// observed without any wake.
func TestUncreditedSinkIsPolled(t *testing.T) {
	sink := &collectSink{full: true}
	r := NewRouter("t", params(ArbFCFS), 1, []Sink{sink}, nil)
	r.Port(0).Push(tx(1, 0), 0, 0)
	r.Tick(1)
	if at, ok := next(r, 1); !ok || at != 2 {
		t.Fatalf("NextActivity = (%d, %v), want the next poll (2, true)", at, ok)
	}
	sink.full = false
	r.Tick(2)
	if len(sink.got) != 1 {
		t.Fatal("polled router missed the out-of-band unblock")
	}
}

// TestDormantMatchesForceScan drives the same randomized push/drain
// schedule through a dormant router and a force-scan router — one
// registered with a reference-mode kernel, which scans every cycle — and
// requires identical grants, stalls and forwarded counts: the unit-level
// version of the skip-vs-step differential.
func TestDormantMatchesForceScan(t *testing.T) {
	t.Parallel()
	type result struct {
		granted []uint64
		cycles  []sim.Cycle
		stalls  uint64
	}
	run := func(force bool) result {
		rng := sim.NewRand(99)
		sink := &collectSink{}
		pr := params(ArbPriority)
		pr.PortDepth = 3
		pr.AgingT = 40
		r := NewRouter("t", pr, 3, []Sink{sink}, nil)
		var k sim.Kernel
		k.SetReference(force)
		k.Register(r)
		id := uint64(0)
		var res result
		for c := sim.Cycle(0); c < 3000; c++ {
			sink.full = rng.Bool(0.6)
			if rng.Bool(0.3) {
				p := r.Port(rng.Intn(3))
				if p.CanAccept() {
					id++
					p.Push(tx(id, txn.Priority(rng.Intn(8))), c, c+sim.Cycle(rng.Intn(4)))
				}
			}
			before := len(sink.got)
			r.Tick(c)
			for _, g := range sink.got[before:] {
				res.granted = append(res.granted, g.ID)
				res.cycles = append(res.cycles, c)
			}
		}
		res.stalls = r.Stalls()
		return res
	}
	ref, fast := run(true), run(false)
	if len(ref.granted) == 0 {
		t.Fatal("reference run granted nothing; schedule too weak")
	}
	if len(ref.granted) != len(fast.granted) || ref.stalls != fast.stalls {
		t.Fatalf("grants %d/%d stalls %d/%d differ between force-scan and dormant",
			len(ref.granted), len(fast.granted), ref.stalls, fast.stalls)
	}
	for i := range ref.granted {
		if ref.granted[i] != fast.granted[i] || ref.cycles[i] != fast.cycles[i] {
			t.Fatalf("grant %d: reference (%d@%d), dormant (%d@%d)", i,
				ref.granted[i], ref.cycles[i], fast.granted[i], fast.cycles[i])
		}
	}
}

func ids(ts []*txn.Transaction) []uint64 {
	var out []uint64
	for _, t := range ts {
		out = append(out, t.ID)
	}
	return out
}
