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

// driveRandom runs one controller under a seeded random enqueue stream
// for the given cycles, recording every issued command. With force set
// the controller is registered with a reference-mode kernel and
// re-derives candidates from scratch every cycle; without it the per-bank
// buckets and the dormancy window are live. Both must produce identical
// command streams. A nil geo keeps the paper geometry and draws banks 0-3;
// otherwise the channel gets geo's ranks and banks, and the stream draws
// four banks spread across each rank.
func driveRandom(t *testing.T, geo *dram.Geometry, policy PolicyKind, seed uint64, refresh, force bool, cycles sim.Cycle) []issueRecord {
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
	cfg.AgingT = 500 // low enough that aged passes actually happen
	c := New(cfg, d)
	var k sim.Kernel
	k.SetReference(force)
	k.Register(c)

	var out []issueRecord
	c.SetTrace(func(ch int, now sim.Cycle, id uint64, kind byte) {
		out = append(out, issueRecord{id, now, kind})
	})
	c.OnComplete = func(*txn.Transaction, sim.Cycle) {}

	rng := sim.NewRand(seed)
	id := uint64(0)
	for now := sim.Cycle(0); now < cycles; now++ {
		// A bursty, bank-colliding arrival pattern: some cycles enqueue
		// several transactions, many enqueue none, rows collide often so
		// conflicts, reservations and the open-page guard all trigger.
		if rng.Bool(0.25) {
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
		c.Tick(now)
	}
	for k := range c.buckets {
		if live := c.live[k>>6]&(1<<(k&63)) != 0; live != (c.buckets[k].head >= 0) {
			t.Fatalf("bank %d: live bit %v, bucket head %d", k, live, c.buckets[k].head)
		}
	}
	return out
}

// TestBucketScanMatchesForceScan is the unit-level differential for the
// per-bank buckets: across every policy, with and without refresh, the
// incrementally maintained scan must issue the exact same command stream
// — same transactions, same cycles, same command kinds — as the
// per-cycle full rescan reference. Random bank collisions exercise every
// invalidation edge (reservation release, open-page guard, refresh
// drains, aging passes, dormancy-window resets).
func TestBucketScanMatchesForceScan(t *testing.T) {
	t.Parallel()
	for _, policy := range AllPolicies() {
		for _, refresh := range []bool{false, true} {
			policy, refresh := policy, refresh
			t.Run(fmt.Sprintf("%v/refresh=%v", policy, refresh), func(t *testing.T) {
				t.Parallel()
				for seed := uint64(1); seed <= 5; seed++ {
					ref := driveRandom(t, nil, policy, seed, refresh, true, 30000)
					fast := driveRandom(t, nil, policy, seed, refresh, false, 30000)
					if len(ref) == 0 {
						t.Fatalf("seed %d: reference issued nothing", seed)
					}
					if len(ref) != len(fast) {
						t.Fatalf("seed %d: issue counts differ: full %d, bucket %d",
							seed, len(ref), len(fast))
					}
					for i := range ref {
						if ref[i] != fast[i] {
							t.Fatalf("seed %d: issue %d differs: full %+v, bucket %+v",
								seed, i, ref[i], fast[i])
						}
					}
				}
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
				for seed := uint64(1); seed <= 3; seed++ {
					ref := driveRandom(t, geo, policy, seed, refresh, true, 20000)
					fast := driveRandom(t, geo, policy, seed, refresh, false, 20000)
					if len(ref) == 0 {
						t.Fatalf("seed %d: reference issued nothing", seed)
					}
					if len(ref) != len(fast) {
						t.Fatalf("seed %d: issue counts differ: full %d, bucket %d", seed, len(ref), len(fast))
					}
					for i := range ref {
						if ref[i] != fast[i] {
							t.Fatalf("seed %d: issue %d differs: full %+v, bucket %+v", seed, i, ref[i], fast[i])
						}
					}
				}
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

// BenchmarkCollectBuckets prices the incremental bucket scan at queue
// depths 4, 32 and 128, in the loaded steady state: the queued entries
// sit on 4 of the 16 banks (the 4x saturated SoC averages 3.9 non-empty
// banks per scan), every bank's device gates hold an open row the
// entries conflict with, gated far in the future, so clean buckets park
// on the precharge gate, and each scan follows one issue, which dirties
// one bank (rotating over the live ones).
func BenchmarkCollectBuckets(b *testing.B) {
	const live = 4
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
			c.collectBuckets(now)
			if len(c.scratch) != 0 || c.nextTry <= now {
				b.Fatalf("scan found %d candidates, parked at %d: want every bank gated past %d",
					len(c.scratch), c.nextTry, now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.bankChanged(i % live * stride)
				c.collectBuckets(now)
			}
		})
	}
}
