package memctrl

import (
	"fmt"
	"testing"

	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

// issueRecord is one observable scheduling decision.
type issueRecord struct {
	id   uint64
	at   sim.Cycle
	kind byte
}

// arrivals is a test ticker that runs burst at each of its arrival
// cycles and sleeps in between, so a skipping kernel fast-forwards
// wherever the controller sleeps too. Each cycle is an arrival with
// probability p, drawn from the ticker's own stream one arrival ahead.
type arrivals struct {
	at    sim.Cycle
	p     float64
	rng   *sim.Rand
	burst func(now sim.Cycle)
}

func newArrivals(rng *sim.Rand, p float64, burst func(now sim.Cycle)) *arrivals {
	a := &arrivals{p: p, rng: rng, burst: burst}
	a.draw(0)
	return a
}

// draw sets the next arrival at or after cycle from.
func (a *arrivals) draw(from sim.Cycle) {
	for a.at = from; !a.rng.Bool(a.p); a.at++ {
	}
}

func (a *arrivals) Tick(now sim.Cycle) {
	if now != a.at {
		return // the stepped reference ticks every cycle
	}
	a.burst(now)
	a.draw(now + 1)
}

func (a *arrivals) NextActivity(now sim.Cycle) (sim.Cycle, bool) { return max(a.at, now), true }

// driveRandom runs one controller under a seeded random enqueue stream
// for the given cycles, recording every issued command. Both legs run
// through sim.Kernel.Run, with the enqueues done by two arrivals
// tickers: one registered ahead of the controller, whose arrivals the
// controller can serve the same cycle, and one behind it, whose arrivals
// wait for the next cycle's tick and meet the kernel's due-wake probe of
// the controller first. With force set the kernel is the stepped
// reference: it ticks the controller every cycle, and the controller
// re-derives candidates from scratch. Without it the kernel ticks the
// controller only when its NextActivity answer (or an Enqueue's re-arm)
// comes due, and the per-bank buckets are live. Both must produce
// identical command streams, so a late wake answer fails here. A nil geo
// keeps the paper geometry and draws banks 0-3;
// otherwise the channel gets geo's ranks and banks, and the stream draws
// four banks spread across each rank.
func driveRandom(t *testing.T, geo *dram.Geometry, policy PolicyKind, seed uint64, refresh bool, agingT sim.Cycle, force bool, cycles sim.Cycle) []issueRecord {
	t.Helper()

	dcfg := dram.PaperConfig(1866)
	bankStride := 1
	if geo != nil {
		dcfg.Geometry.Ranks, dcfg.Geometry.Banks = geo.Ranks, geo.Banks
		bankStride = geo.Banks / 4
	}
	if refresh {
		dcfg.Refresh = dcfg.DefaultRefresh()
	}
	d := dram.New(dcfg)
	cfg := DefaultConfig(0)
	cfg.Policy = policy
	cfg.AgingT = agingT
	c := New(cfg, d)

	var out []issueRecord
	c.SetTrace(func(ch int, now sim.Cycle, id uint64, kind byte) {
		out = append(out, issueRecord{id, now, kind})
	})
	c.OnComplete = func(*txn.Transaction, sim.Cycle) {}

	rng := sim.NewRand(seed)
	id := uint64(0)
	burst := func(now sim.Cycle) {
		checkBuckets(t, c, now)
		// A bursty, bank-colliding arrival pattern: some cycles enqueue
		// several transactions, many enqueue none, rows collide often so
		// conflicts, reservations and the open-page guard all trigger.
		for n := rng.Intn(3); n >= 0; n-- {
			class := txn.Class(rng.Intn(txn.NumClasses))
			if !c.SpaceFor(class) {
				continue
			}
			id++
			loc := dram.Location{
				Channel: 0,
				Rank:    rng.Intn(dcfg.Geometry.Ranks),
				Bank:    rng.Intn(4) * bankStride, // few banks: heavy collisions
				Row:     uint64(rng.Intn(3)),
			}
			kind := txn.Read
			if rng.Bool(0.3) {
				kind = txn.Write
			}
			tr := &txn.Transaction{
				ID:       id,
				Kind:     kind,
				Addr:     d.Mapper().Encode(loc),
				Size:     128,
				Class:    class,
				Priority: txn.Priority(rng.Intn(8)),
				Urgent:   rng.Bool(0.1),
			}
			c.Enqueue(tr, now)
		}
	}
	var k sim.Kernel
	k.SetReference(force)
	k.Register(newArrivals(rng.Fork(1), 0.125, burst))
	k.Register(c)
	k.Register(newArrivals(rng.Fork(2), 0.125, burst))
	k.Run(cycles)
	checkBuckets(t, c, cycles)
	return out
}

// checkBuckets asserts the bucket invariants at cycle now: a bank's live
// bit is set exactly when its bucket holds entries; a live bank's
// category counts, reservation slot and cached row-hit priority equal a
// recount from its bucket; and, per bucket.go's invalidation contract,
// its bound is no later than the cycle a fresh probe gives any of its
// entries. An entry over age since an earlier cycle is probed with the
// open-page guard lifted, as the aged pass probes it, once pickFull has
// had a cycle to re-bound its bank: with refresh modeled the refresh
// machine may take the crossing cycle's command slot, and the controller
// then ticks every cycle until its scan runs, so there the lifted probe
// is checked only with refresh off.
func checkBuckets(t *testing.T, c *Controller, now sim.Cycle) {
	t.Helper()
	for k := range c.buckets {
		b := &c.buckets[k]
		if live := c.live[k>>6]&(1<<(k&63)) != 0; live != (b.head >= 0) {
			t.Fatalf("cycle %d: bank %d: live bit %v, bucket head %d", now, k, live, b.head)
		}
		if b.head < 0 {
			continue
		}
		bs := &c.gates.Banks[k]
		var want [4]int32
		hit, resv := uint16(0), int32(-1)
		for s := b.head; s >= 0; s = c.next[s] {
			e := &c.slots[s]
			p := entryHit(bs, e)
			switch {
			case p == 0:
				want[2]++
			case e.t.Kind == txn.Read:
				want[0]++
			default:
				want[1]++
			}
			hit = max(hit, p)
			if e.t.ID == bs.ReservedBy {
				resv = s
			}
		}
		if c.rowAware && c.bankHit[k] != hit {
			t.Fatalf("cycle %d: bank %d: bankHit %d, recount %d", now, k, c.bankHit[k], hit)
		}
		for s := b.head; s >= 0; s = c.next[s] {
			if e := &c.slots[s]; entryHit(bs, e) == 0 && c.allowPrecharge(e) {
				want[3]++
			}
		}
		if got := [4]int32{b.hitR, b.hitW, b.miss, b.missOK}; got != want {
			t.Fatalf("cycle %d: bank %d: counts (hitR, hitW, miss, missOK) %v, recount %v", now, k, got, want)
		}
		if b.resv != resv {
			t.Fatalf("cycle %d: bank %d: reservation slot %d, recount %d", now, k, b.resv, resv)
		}
		for s := b.head; s >= 0; s = c.next[s] {
			e := &c.slots[s]
			allow := c.allowPrecharge(e) || !c.refreshOn && c.cfg.AgingT > 0 && now > e.t.Enqueue+c.cfg.AgingT
			if _, _, at, ok := c.probeScan(e, allow, now); ok && at < b.readyAt {
				t.Fatalf("cycle %d: bank %d bounded at %d, but txn %d clears its gates at %d",
					now, k, b.readyAt, e.t.ID, at)
			}
		}
	}
}

// matchForceScan runs driveRandom's two legs for each seed and aging
// limit and requires identical command streams.
func matchForceScan(t *testing.T, geo *dram.Geometry, policy PolicyKind, refresh bool, seeds uint64, agings []sim.Cycle, cycles sim.Cycle) {
	t.Helper()
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, agingT := range agings {
			ref := driveRandom(t, geo, policy, seed, refresh, agingT, true, cycles)
			fast := driveRandom(t, geo, policy, seed, refresh, agingT, false, cycles)
			if len(ref) == 0 {
				t.Fatalf("seed %d, aging %d: reference issued nothing", seed, agingT)
			}
			if len(ref) != len(fast) {
				t.Fatalf("seed %d, aging %d: issue counts differ: full %d, bucket %d",
					seed, agingT, len(ref), len(fast))
			}
			for i := range ref {
				if ref[i] != fast[i] {
					t.Fatalf("seed %d, aging %d: issue %d differs: full %+v, bucket %+v",
						seed, agingT, i, ref[i], fast[i])
				}
			}
		}
	}
}

// TestBucketScanMatchesForceScan is the unit-level differential for the
// per-bank buckets: across every policy, with and without refresh, the
// incrementally maintained scan must issue the exact same command stream
// — same transactions, same cycles, same command kinds — as the
// per-cycle full rescan reference, and the controller's wake answers
// must never let the kernel sleep through a command. Random bank
// collisions exercise every invalidation edge (reservation release,
// open-page guard, refresh drains, aging passes, enqueue re-arms). Both
// aging limits are low enough that aged passes happen; the shorter one
// also lands aging deadlines inside the timing waits of misses the
// open-page guard holds back, which only the deadline in the wake answer
// catches.
func TestBucketScanMatchesForceScan(t *testing.T) {
	t.Parallel()
	for _, policy := range AllPolicies() {
		for _, refresh := range []bool{false, true} {
			policy, refresh := policy, refresh
			t.Run(fmt.Sprintf("%v/refresh=%v", policy, refresh), func(t *testing.T) {
				t.Parallel()
				matchForceScan(t, nil, policy, refresh, 5, []sim.Cycle{500, 100}, 30000)
			})
		}
	}
}

// TestBucketScanAnyGeometry is the bucket differential on a channel of
// 4 ranks x 32 banks: 128 bank keys span two bitmap words, so a scan or a
// mask that assumed at most 64 banks would drop the upper ranks' banks
// and diverge from the full rescan.
func TestBucketScanAnyGeometry(t *testing.T) {
	t.Parallel()
	geo := &dram.Geometry{Ranks: 4, Banks: 32}
	for _, policy := range []PolicyKind{QoS, QoSRB, FRFCFS} {
		for _, refresh := range []bool{false, true} {
			policy, refresh := policy, refresh
			t.Run(fmt.Sprintf("%v/refresh=%v", policy, refresh), func(t *testing.T) {
				t.Parallel()
				matchForceScan(t, geo, policy, refresh, 3, []sim.Cycle{500}, 20000)
			})
		}
	}
}

// TestBucketMembershipTracksQueues pins the dual index: after a run with
// arrivals and completions, the bucket population must equal the class
// queue population entry for entry.
func TestBucketMembershipTracksQueues(t *testing.T) {
	c, d := newTestController(QoS)
	rng := sim.NewRand(7)
	id := uint64(0)
	for now := sim.Cycle(0); now < 5000; now++ {
		if rng.Bool(0.3) && c.SpaceFor(txn.ClassGPU) {
			id++
			loc := dram.Location{Channel: 0, Rank: rng.Intn(2), Bank: rng.Intn(4), Row: uint64(rng.Intn(3))}
			c.Enqueue(&txn.Transaction{ID: id, Kind: txn.Read, Addr: d.Mapper().Encode(loc),
				Size: 128, Class: txn.ClassGPU}, now)
		}
		c.Tick(now)
	}
	inQueues := make(map[uint64]bool)
	for qi := range c.queues {
		for _, s := range c.queues[qi].slots {
			inQueues[c.slots[s].t.ID] = true
		}
	}
	nBuckets := 0
	for k := range c.buckets {
		for s := c.buckets[k].head; s >= 0; s = c.next[s] {
			e := &c.slots[s]
			if c.bankKey(e.loc) != k {
				t.Fatalf("txn %d filed under bank %d, located at %+v", e.t.ID, k, e.loc)
			}
			if !inQueues[e.t.ID] {
				t.Fatalf("txn %d in a bucket but not in any class queue", e.t.ID)
			}
			nBuckets++
		}
	}
	if nBuckets != len(inQueues) {
		t.Fatalf("bucket population %d, queue population %d", nBuckets, len(inQueues))
	}
	if c.Pending() != nBuckets {
		t.Fatalf("Pending() %d, bucket population %d", c.Pending(), nBuckets)
	}
}

// BenchmarkCollectBuckets prices the incremental bucket scan (pickBuckets;
// the benchmark keeps the scan's earlier name) at queue depths 4, 32 and
// 128, in the loaded steady state: the queued entries sit on 6 of the 16
// banks (the 4x saturated SoC averages 5.9 live banks per scan, counted
// over 2M cycles after one frame),
// every bank's device gates hold an open row the entries conflict with,
// gated far in the future, so every bank parks on its precharge gate.
// Each scan follows one issue, which recounts one bank (rotating over
// the live ones) and leaves its bound due, as a command on another bank
// leaves a stale-early bound, so the scan re-bounds it and parks it
// again.
func BenchmarkCollectBuckets(b *testing.B) {
	const live = 6
	for _, depth := range []int{4, 32, 128} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			d := dram.New(dram.PaperConfig(1866))
			geo := d.Config().Geometry
			stride := geo.Ranks * geo.Banks / live
			cfg := DefaultConfig(0)
			per := (depth + txn.NumClasses - 1) / txn.NumClasses
			cfg.QueueCaps = QueueCaps{per, per, per, per, per}
			c := New(cfg, d)
			for k := range c.gates.Banks {
				bs := &c.gates.Banks[k]
				bs.Open, bs.Row, bs.NextPre = true, 100, 1<<40
			}
			for i := 0; i < depth; i++ {
				k := i % live * stride
				loc := dram.Location{Rank: k / geo.Banks, Bank: k % geo.Banks, Row: uint64(i / live)}
				c.Enqueue(&txn.Transaction{ID: uint64(i + 1), Kind: txn.Read, Addr: d.Mapper().Encode(loc),
					Size: 128, Class: txn.Class(i % txn.NumClasses)}, 1)
			}
			now := sim.Cycle(2)
			_, found := c.pickBuckets(now)
			if at, ok := c.queueWake(now); found || !ok || at <= now {
				b.Fatalf("scan found a candidate (%v) or woke at %d (%v): want every bank gated past %d",
					found, at, ok, now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % live * stride
				c.rowChanged(k)
				c.buckets[k].readyAt = now
				c.pickBuckets(now)
			}
		})
	}
}
