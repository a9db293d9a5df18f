package noc

import (
	"fmt"
	"testing"

	"sara/internal/sim"
	"sara/internal/txn"
)

// collectSink records accepted transactions and can simulate backpressure.
type collectSink struct {
	got  []*txn.Transaction
	full bool
	w    Waker
}

func (s *collectSink) CanAccept(*txn.Transaction) bool { return !s.full }
func (s *collectSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.got = append(s.got, t)
}
func (s *collectSink) OnCredit(w Waker) { s.w = w }

// setFull flips the sink's acceptance before the tick of cycle now. Going
// from full to accepting is a credit return: it wakes the router so that
// tick scans.
func (s *collectSink) setFull(full bool, now sim.Cycle) {
	if s.full && !full && s.w != nil {
		s.w.Wake(now)
	}
	s.full = full
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
	r.Tick(0)
	if len(sink.got) != 0 {
		t.Fatal("forwarded into a full sink")
	}
	if r.Stalls() != 1 {
		t.Fatalf("stalls %d, want 1", r.Stalls())
	}
	sink.setFull(false, 2)
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
	r := NewRouter("t", params(ArbFCFS), 2, []Sink{sink}, nil)
	var grants []sim.Cycle
	r.SetTrace(Trace{Grant: func(_ string, now sim.Cycle, _, _ int, _ uint64) {
		grants = append(grants, now)
	}})
	var k sim.Kernel
	k.Register(r)
	k.Run(2)                       // the empty router ticks at 0 and parks with no wake
	r.Port(0).Push(tx(1, 0), 2, 7) // still traversing its link until cycle 7
	if at, ok := next(r, 2); !ok || at != 7 {
		t.Fatalf("NextActivity = (%d, %v), want (7, true)", at, ok)
	}
	// A second injection with an earlier readyAt pulls the wake forward.
	r.Port(1).Push(tx(2, 0), 2, 3)
	if at, ok := next(r, 2); !ok || at != 3 {
		t.Fatalf("after earlier push NextActivity = (%d, %v), want (3, true)", at, ok)
	}
	// Only the pushes' kernel re-arms can get the parked router ticked.
	k.Run(20)
	if fmt.Sprint(grants) != "[3 7]" || fmt.Sprint(ids(sink.got)) != "[2 1]" {
		t.Fatalf("granted %v at cycles %v, want [2 1] at [3 7]", ids(sink.got), grants)
	}
	if k.SkippedCycles() == 0 {
		t.Fatal("the kernel skipped nothing: the router was never dormant")
	}
}

// TestCreditReturnWakesBlockedUpstream chains two routers through a
// PortSink and checks the full dormancy round trip: the upstream router
// sleeps (NextActivity false) while its head is blocked on the full
// downstream port, and once the downstream pop returns a credit it is due
// at pop+1, the cycle the credit wake re-arms it for.
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
		t.Fatal("upstream blocked on a full sink must report no activity")
	}
	stallsBefore := up.Stalls()

	// Downstream unblocks and pops at cycle 5: the upstream router is due
	// at cycle 6, when the kernel queries it.
	final.setFull(false, 5)
	down.Tick(5)
	if at, ok := next(up, 6); !ok || at != 6 {
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

// TestDormantMatchesForceScan drives the same randomized push/drain
// schedule through a router ticked every cycle, as the stepped reference
// does, and through a dormant one ticked only on the cycles its
// NextActivity reports due, as the kernel's active list does (its batched
// stall accounting settled at the end), and requires identical grants and
// stalls: the unit-level version of the skip-vs-step differential.
func TestDormantMatchesForceScan(t *testing.T) {
	t.Parallel()
	type result struct {
		granted []uint64
		cycles  []sim.Cycle
		stalls  uint64
	}
	run := func(stepped bool) result {
		rng := sim.NewRand(99)
		sink := &collectSink{}
		pr := params(ArbPriority)
		pr.PortDepth = 3
		pr.AgingT = 40
		r := NewRouter("t", pr, 3, []Sink{sink}, nil)
		id := uint64(0)
		var res result
		for c := sim.Cycle(0); c < 3000; c++ {
			sink.setFull(rng.Bool(0.6), c)
			if rng.Bool(0.3) {
				p := r.Port(rng.Intn(3))
				if p.CanAccept() {
					id++
					p.Push(tx(id, txn.Priority(rng.Intn(8))), c, c+sim.Cycle(rng.Intn(4)))
				}
			}
			before := len(sink.got)
			if at, ok := r.NextActivity(c); stepped || ok && at <= c {
				r.Tick(c)
			}
			for _, g := range sink.got[before:] {
				res.granted = append(res.granted, g.ID)
				res.cycles = append(res.cycles, c)
			}
		}
		r.SettleRun(3000)
		res.stalls = r.Stalls()
		return res
	}
	ref, fast := run(true), run(false)
	if len(ref.granted) == 0 {
		t.Fatal("reference run granted nothing; schedule too weak")
	}
	if len(ref.granted) != len(fast.granted) || ref.stalls != fast.stalls {
		t.Fatalf("grants %d/%d stalls %d/%d differ between stepped and dormant",
			len(ref.granted), len(fast.granted), ref.stalls, fast.stalls)
	}
	for i := range ref.granted {
		if ref.granted[i] != fast.granted[i] || ref.cycles[i] != fast.cycles[i] {
			t.Fatalf("grant %d: reference (%d@%d), dormant (%d@%d)", i,
				ref.granted[i], ref.cycles[i], fast.granted[i], fast.cycles[i])
		}
	}
}

// TestRouterCountersWindowedGolden drives a bare two-deep router through
// two hand-computable windows and checks the deltas of the counters the
// analyzer's per-router series come from: grants (Forwarded), stall
// cycles (Stalls) and backpressure releases (FullPops).
func TestRouterCountersWindowedGolden(t *testing.T) {
	t.Parallel()
	sink := &collectSink{}
	pr := params(ArbFCFS)
	pr.PortDepth = 2
	r := NewRouter("g", pr, 1, []Sink{sink}, nil)

	type counts struct{ forwarded, stalls, fullPops uint64 }
	var last counts
	window := func() counts {
		cur := counts{r.Forwarded(), r.Stalls(), r.FullPops()}
		d := counts{cur.forwarded - last.forwarded, cur.stalls - last.stalls, cur.fullPops - last.fullPops}
		last = cur
		return d
	}

	// Window 1: fill the port (depth 2), then drain it. The first pop
	// leaves a full FIFO, so it is the window's one backpressure release.
	r.Port(0).Push(tx(1, 0), 0, 0)
	r.Port(0).Push(tx(2, 0), 0, 0)
	r.Tick(0)
	r.Tick(1)
	if got, want := window(), (counts{forwarded: 2, stalls: 0, fullPops: 1}); got != want {
		t.Fatalf("window 1 counts %+v, want %+v", got, want)
	}

	// Window 2: a ready head blocked on a full sink stalls the switch
	// every cycle, scanned at 3 and dormant at 4; the credit return wakes
	// the router and it grants (a pop of a non-full FIFO, so no
	// backpressure release).
	sink.setFull(true, 3)
	r.Port(0).Push(tx(3, 0), 3, 3)
	r.Tick(3)
	r.Tick(4)
	sink.setFull(false, 5)
	r.Tick(5)
	if got, want := window(), (counts{forwarded: 1, stalls: 2, fullPops: 0}); got != want {
		t.Fatalf("window 2 counts %+v, want %+v", got, want)
	}
	if len(sink.got) != 3 {
		t.Fatalf("sink accepted %d packets, want 3", len(sink.got))
	}
}

func ids(ts []*txn.Transaction) []uint64 {
	var out []uint64
	for _, t := range ts {
		out = append(out, t.ID)
	}
	return out
}

// --- selection oracle: per-output head lists against the nested scan ---

// classSink accepts every transaction whose class is not in its refused
// mask. Changing the mask is a credit return when it lets a class through
// again, so setRefused wakes the router then.
type classSink struct {
	refused uint8
	got     []*txn.Transaction
	w       Waker
}

func (s *classSink) CanAccept(t *txn.Transaction) bool { return s.refused&(1<<t.Class) == 0 }
func (s *classSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.got = append(s.got, t)
}
func (s *classSink) OnCredit(w Waker) { s.w = w }

func (s *classSink) setRefused(mask uint8, now sim.Cycle) {
	if s.refused&^mask != 0 && s.w != nil {
		s.w.Wake(now)
	}
	s.refused = mask
}

// grantRec is one grant: cycle, input port, output and transaction.
type grantRec struct {
	at        sim.Cycle
	port, out int
	id        uint64
}

// oracleHead is one port's arbitrable head with its routed output, as
// the nested scan collects them.
type oracleHead struct {
	idx, out int
	pk       packet
}

// oracleStats counts what an oracle run exercised: grants made in an
// aging pass, heads passed over because their sink refused them, and,
// for a granted port whose next head was ready, whether that head
// routed to a later, an earlier or the same output.
type oracleStats struct {
	aged, refused        int
	later, earlier, same int
}

// oracleScan is the outputs × ready-heads nested scan the router's
// per-output head lists replace: collect every arbitrable head once,
// then for each output rescan all of them, and after a grant re-read the
// popped port's next head in place. It pops through Port.pop like the
// router and returns the grants it made at cycle now.
func oracleScan(r *Router, now sim.Cycle, st *oracleStats) []grantRec {
	var ready []oracleHead
	oldest := now
	for i, p := range r.ports {
		if len(p.fifo) == 0 || p.fifo[0].readyAt > now {
			continue
		}
		ready = append(ready, oracleHead{i, r.headOut(p), p.fifo[0]})
		if p.fifo[0].arrived < oldest {
			oldest = p.fifo[0].arrived
		}
	}
	aging := r.params.AgingT > 0 && now >= oldest+r.params.AgingT
	var grants []grantRec
	for out := range r.outputs {
		sel := -1
		if aging {
			for i, h := range ready {
				if h.out != out || now < h.pk.arrived+r.params.AgingT || !r.outputs[out].CanAccept(h.pk.t) {
					continue
				}
				if sel < 0 || fcfsBefore(&h.pk, &ready[sel].pk) {
					sel = i
				}
			}
			if sel >= 0 {
				st.aged++
			}
		}
		if sel < 0 {
			for i, h := range ready {
				if h.out != out {
					continue
				}
				if !r.outputs[out].CanAccept(h.pk.t) {
					st.refused++
					continue
				}
				if sel < 0 || r.better(&h.pk, h.idx, &ready[sel].pk, ready[sel].idx) {
					sel = i
				}
			}
		}
		if sel < 0 {
			continue
		}
		h := ready[sel]
		pk := r.ports[h.idx].pop(now)
		r.outputs[out].Accept(pk.t, now)
		r.rrPtr = (h.idx + 1) % len(r.ports)
		grants = append(grants, grantRec{now, h.idx, out, pk.t.ID})
		if p := r.ports[h.idx]; len(p.fifo) > 0 && p.fifo[0].readyAt <= now {
			next := oracleHead{h.idx, r.headOut(p), p.fifo[0]}
			switch {
			case next.out > out:
				st.later++
			case next.out < out:
				st.earlier++
			default:
				st.same++
			}
			ready[sel] = next
		} else {
			ready = append(ready[:sel], ready[sel+1:]...)
		}
	}
	return grants
}

// TestSelectionMatchesNestedScan drives a router and a twin through the
// same randomized states — ports, outputs, hop delays, priorities,
// urgency, classes, sinks refusing by class — and requires the router's
// grants to equal, cycle by cycle, the grants of the nested scan run on
// the twin. The reference kernel mode does not bypass output selection,
// so this is the check that sees a selection bug.
func TestSelectionMatchesNestedScan(t *testing.T) {
	t.Parallel()
	var total oracleStats
	for _, arb := range []ArbKind{ArbFCFS, ArbRR, ArbPriority, ArbFrameRate} {
		for _, aging := range []bool{false, true} {
			for seed := uint64(1); seed <= 25; seed++ {
				rng := sim.NewRand(seed*8 + uint64(arb)*2)
				pr := params(arb)
				pr.PortDepth = 1 + rng.Intn(6)
				if aging {
					pr.AgingT = sim.Cycle(5 + rng.Intn(40))
				}
				nports, nout := 1+rng.Intn(8), 1+rng.Intn(8)
				if seed%5 == 0 {
					nout = 8
				}
				route := func(t *txn.Transaction) int { return int(t.Addr) }
				build := func() (*Router, []*classSink) {
					sinks := make([]*classSink, nout)
					outs := make([]Sink, nout)
					for i := range sinks {
						sinks[i] = &classSink{}
						outs[i] = sinks[i]
					}
					return NewRouter("t", pr, nports, outs, route), sinks
				}
				r, rSinks := build()
				o, oSinks := build()
				var got []grantRec
				r.SetTrace(Trace{Grant: func(_ string, now sim.Cycle, port, out int, id uint64) {
					got = append(got, grantRec{now, port, out, id})
				}})
				id := uint64(0)
				for now := sim.Cycle(0); now < 400; now++ {
					for i := range rSinks {
						if rng.Bool(0.1) {
							mask := uint8(rng.Intn(1 << txn.NumClasses))
							if rng.Bool(0.5) {
								mask = 0
							}
							rSinks[i].setRefused(mask, now)
							oSinks[i].setRefused(mask, now)
						}
					}
					for p := 0; p < nports; p++ {
						if !rng.Bool(0.35) || !r.Port(p).CanAccept() {
							continue
						}
						id++
						tr := &txn.Transaction{ID: id, Addr: txn.Addr(rng.Intn(nout)),
							Class: txn.Class(rng.Intn(txn.NumClasses)), Priority: txn.Priority(rng.Intn(8)),
							Urgent: rng.Bool(0.2)}
						hop := sim.Cycle(rng.Intn(4))
						r.Port(p).Push(tr, now, now+hop)
						o.Port(p).Push(tr, now, now+hop)
					}
					before := len(got)
					r.Tick(now)
					want := oracleScan(o, now, &total)
					if fmt.Sprint(got[before:]) != fmt.Sprint(want) {
						t.Fatalf("%v aging=%v seed %d (%d ports, %d outputs) cycle %d: grants %v, nested scan %v",
							arb, aging, seed, nports, nout, now, got[before:], want)
					}
				}
			}
		}
	}
	if total.aged == 0 || total.refused == 0 || total.later == 0 || total.earlier == 0 || total.same == 0 {
		t.Fatalf("vacuous run: %+v", total)
	}
	t.Logf("exercised: %+v", total)
}

// benchRouter builds an 8-port, 8-output router with 4-deep ports whose
// packets route by Addr, and a pool of transactions to refill it from.
func benchRouter() (*Router, []*classSink, []*txn.Transaction) {
	const nports, nout = 8, 8
	sinks := make([]*classSink, nout)
	outs := make([]Sink, nout)
	for i := range sinks {
		sinks[i] = &classSink{got: make([]*txn.Transaction, 0, 1)} // one grant per output per tick
		outs[i] = sinks[i]
	}
	pr := params(ArbPriority)
	pr.AgingT = 10000
	r := NewRouter("bench", pr, nports, outs, func(t *txn.Transaction) int { return int(t.Addr) })
	pool := make([]*txn.Transaction, 64)
	for i := range pool {
		pool[i] = &txn.Transaction{ID: uint64(i + 1), Addr: txn.Addr(i * 5 % nout), Priority: txn.Priority(i % 8)}
	}
	return r, sinks, pool
}

// BenchmarkRouterTick prices what the kernel pays for one due router on
// the root router's shape (8 inputs, 8 outputs): the tick plus the
// NextActivity(now+1) re-key that follows it. It does so in the two states
// a loaded run ticks it in: backpressured (every head ready but every sink
// refusing; a credit wake each cycle makes the router due) and granting
// (every port refilled to its depth each cycle, so each scan grants on
// several outputs; the refill is part of the measured loop).
func BenchmarkRouterTick(b *testing.B) {
	fill := func(r *Router, pool []*txn.Transaction, next *int, now, readyAt sim.Cycle) {
		for p := 0; p < r.NPorts(); p++ {
			for r.Port(p).CanAccept() {
				r.Port(p).Push(pool[*next%len(pool)], now, readyAt)
				*next++
			}
		}
	}
	b.Run("Backpressured", func(b *testing.B) {
		r, sinks, pool := benchRouter()
		for _, s := range sinks {
			s.refused = 1<<txn.NumClasses - 1
		}
		next := 0
		fill(r, pool, &next, 0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := sim.Cycle(i + 1)
			r.Wake(now)
			r.Tick(now)
			r.NextActivity(now + 1)
		}
	})
	b.Run("Granting", func(b *testing.B) {
		r, sinks, pool := benchRouter()
		next := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := sim.Cycle(i + 1)
			fill(r, pool, &next, now, now)
			r.Tick(now)
			r.NextActivity(now + 1)
			for _, s := range sinks {
				s.got = s.got[:0]
			}
		}
	})
}
