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
// command streams.
func driveRandom(t *testing.T, policy PolicyKind, seed uint64, refresh, force bool, cycles sim.Cycle) []issueRecord {
	t.Helper()

	dcfg := dram.PaperConfig(1866)
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
					Rank:    rng.Intn(2),
					Bank:    rng.Intn(4), // few banks: heavy collisions
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
					ref := driveRandom(t, policy, seed, refresh, true, 30000)
					fast := driveRandom(t, policy, seed, refresh, false, 30000)
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
		for i := range c.queues[qi].entries {
			inQueues[c.queues[qi].entries[i].t.ID] = true
		}
	}
	nBuckets := 0
	for k := range c.buckets {
		for i := range c.buckets[k].entries {
			e := &c.buckets[k].entries[i]
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
