package memctrl

import (
	"fmt"
	"math/bits"

	"sara/internal/dram"
	"sara/internal/sim"
)

// Per-bank candidate buckets: incremental maintenance of the queue scan,
// and the controller's only record of when it acts next.
//
// The controller's scheduling scan used to re-probe every queued
// transaction against the channel's timing gates on every eligible cycle.
// Under the saturated loaded phase that full rescan dominated simulation
// time, and it grows with queue depth rather than with actual activity.
// The buckets below replace it: every queued entry is indexed by its bank
// (bankKey = rank*banks+bank), and each bucket carries a cached lower
// bound on the earliest cycle any of its entries could issue. Two bank
// bitmaps, 64 banks to a word so any geometry fits, say which buckets a
// scan must look at: the live mask marks the non-empty buckets and the
// dirty mask the buckets to re-probe whatever their cached bound. A scan
// (pickBuckets) walks only the live banks (bits.TrailingZeros64 over the
// words), probes only banks whose readiness could have changed since the
// last event, and keeps the best candidate as it goes. Clean buckets
// parked in the future are skipped without probing a single entry, and
// their bounds, read in place, are the controller's wake answer
// (queueWake, through NextActivity): a dirty live bank answers now, and
// otherwise the earliest bound or coming aging deadline does.
//
// # Invalidation contract
//
// bucket.readyAt must remain a LOWER bound on the true earliest-issuable
// cycle of every entry in the bucket for as long as the bucket is clean
// (its bit in the dirty mask is clear).
// Probing too early is always safe (the scan re-probes and goes back to
// sleep); probing too late would miss a command and break skip-vs-step
// equivalence. The bound stays sound because every input of probeScan is
// either a device timing gate, which only moves later (the monotonicity
// contract on dram.Gates), or bank-local state that changes only at an
// event this controller itself causes, where it invalidates the bank:
//
//   - command issue on a bank (CAS, PRE, ACT — transaction or refresh
//     drain): the bank's row state, reservation, timing gates and queued
//     row-hit picture all changed; issue() and issueRefreshPre call
//     bankChanged, which sets the bank's dirty bit and rebuilds its cached
//     row-hit priority from the device's bank state as the command left it.
//     So after any issue the wake answer is the next cycle.
//   - CAS release: the served entry leaves its bucket (bucketRemove in
//     issueCAS) before bankChanged rebuilds the hit cache, so the
//     open-page guard (allowPrecharge) unblocks followers the same cycle.
//     The entry that empties a bucket clears the bank's live bit; beyond
//     its own bank, a CAS moves only ChRead/ChWrite, which only move
//     later, and the round-robin pointer, which reorders candidates but
//     readies none.
//   - REF issue: the rank's forced-drain gate (refBlocked) clears and
//     every activate gate of the rank moved; issueRefresh calls
//     dirtyRank, which sets the dirty bits of the rank's banks. The
//     opposite transitions (a drain starting, gates moving later) only
//     delay entries and need no invalidation.
//   - enqueue: the new entry may be issuable immediately; Enqueue pushes
//     it into its bucket, sets the bank's live and dirty bits, raises the
//     cached row-hit priority if the entry hits the open row, and re-arms
//     the kernel wake at now, the one event from outside the controller.
//
// Entry attributes the probe reads (Priority, Urgent, Enqueue, ID,
// decoded Location) are stamped at injection and immutable while queued,
// so no adapter activity can invalidate a parked bucket.
//
// Aging is the one non-bank-local input: once any class-queue head
// crosses the starvation limit the "serve only over-age work" rule makes
// the candidate set a function of age, not of banks, so the controller
// falls back to the full rescan (pickFull) for those (rare) cycles. Its
// policy pass probes every entry, so it refreshes every live bucket's
// bound and clears the dirty bits, bounding an over-age entry the policy
// blocks as the aged pass probes it, with the open-page guard lifted. A
// deadline crossing is the one readiness change no event marks: it
// changes the candidate rule and lifts the guard for the crossing entry,
// which no bound yet covers. So the wake answer includes the first
// deadline at or after the queried cycle, and the controller ticks, and
// rescans, at every crossing before it may sleep past it.
//
// The kernel's reference mode keeps the contract honest: it ticks the
// controller every cycle, and the controller, whose wake handle then
// reports Reference, re-derives candidates from scratch every tick — no
// bucket caches, full bankHit recompute, refresh machine polled every
// cycle — giving the differential suites a stepped reference that any
// stale bound, missed invalidation or late wake answer diverges from.

// bucket indexes the queued entries of one bank.
type bucket struct {
	// head and tail are the bank's first and last entries in arrival
	// order, as slots linked through Controller.next; -1 when empty.
	head, tail int32
	// readyAt is the cached lower bound on the earliest cycle any entry in
	// this bucket could issue; neverTry when every entry is blocked on a
	// queue-shape change rather than a timing gate. It is meaningless
	// while the bank's dirty bit is set or its live bit is clear.
	readyAt sim.Cycle
}

// bankMask is a bitmap over bank keys, 64 banks to a word.
type bankMask []uint64

func newBankMask(n int) bankMask { return make(bankMask, (n+63)/64) }

func (m bankMask) set(k int)   { m[k>>6] |= 1 << (k & 63) }
func (m bankMask) clear(k int) { m[k>>6] &^= 1 << (k & 63) }

// entryHit is THE queued row-hit-priority rule: the entry's priority
// offset by one when a CAS would hit the bank's open row (so zero means
// "no hit"). The incremental maintainers (bucketPush, bankChanged) and
// the full recompute (refreshBankHits) all evaluate this one function —
// the incremental and reference bankHit values must stay bit-identical
// for skip-vs-step equivalence, so the rule must not fork.
func entryHit(bs *dram.Bank, e *entry) uint16 {
	if !bs.Open || bs.Row != e.loc.Row {
		return 0
	}
	return uint16(e.t.Priority) + 1
}

// bucketPush appends slot s to its bank's bucket and marks it for
// re-probing. When the entry hits the bank's open row it also raises the
// cached row-hit priority (it can only raise it: lowering happens
// exclusively through bankChanged after an issue on the bank).
func (c *Controller) bucketPush(s int32) {
	e := &c.slots[s]
	key := c.bankKey(e.loc)
	b := &c.buckets[key]
	c.next[s] = -1
	if b.tail < 0 {
		b.head = s
	} else {
		c.next[b.tail] = s
	}
	b.tail = s
	c.live.set(key)
	c.dirty.set(key)
	if c.rowAware {
		if p := entryHit(&c.gates.Banks[key], e); p > c.bankHit[key] {
			c.bankHit[key] = p
		}
	}
}

// bucketRemove unlinks slot s from bank key's bucket.
func (c *Controller) bucketRemove(key int, s int32) {
	b := &c.buckets[key]
	prev := int32(-1)
	for at := b.head; at >= 0; prev, at = at, c.next[at] {
		if at != s {
			continue
		}
		if prev < 0 {
			b.head = c.next[s]
		} else {
			c.next[prev] = c.next[s]
		}
		if b.tail == s {
			b.tail = prev
		}
		if b.head < 0 {
			c.live.clear(key)
		}
		return
	}
	panic(fmt.Sprintf("memctrl: bucket remove of unknown slot %d", s))
}

// bankChanged records that a command was issued to bank key: the bucket
// must be re-probed, and for row-aware policies the cached best queued
// row-hit priority is rebuilt against the bank's new row state.
func (c *Controller) bankChanged(key int) {
	c.dirty.set(key)
	if !c.rowAware {
		return
	}
	hit := uint16(0)
	bs := &c.gates.Banks[key]
	for s := c.buckets[key].head; s >= 0; s = c.next[s] {
		if p := entryHit(bs, &c.slots[s]); p > hit {
			hit = p
		}
	}
	c.bankHit[key] = hit
}

// dirtyRank marks every bucket of rank r for re-probing (a REF cleared
// the rank's forced-drain gate and moved its activate gates).
func (c *Controller) dirtyRank(r int) {
	for b := r * c.nBanks; b < (r+1)*c.nBanks; b++ {
		c.dirty.set(b)
	}
}

// pickBuckets is the incremental scan: clean buckets parked in the
// future are skipped without any per-entry work; dirty or due buckets are
// re-probed and their bound refreshed. Empty buckets are not visited at
// all: the scan walks the set bits of the live mask, in ascending bank
// order, keeping the best candidate so far under the policy, so it meets
// candidates in the order a walk over every bucket would. It is only
// valid while no queued transaction is over the aging limit (the caller
// checks), because aging changes the candidate rule globally.
//
//sara:hotpath
func (c *Controller) pickBuckets(now sim.Cycle) (best candidate, found bool) {
	for w, live := range c.live {
		for live != 0 {
			bit := bits.TrailingZeros64(live)
			live &= live - 1
			b := &c.buckets[w<<6|bit]
			if c.dirty[w]&(1<<bit) == 0 && b.readyAt > now {
				continue
			}
			c.dirty[w] &^= 1 << bit
			at := neverTry
			for s := b.head; s >= 0; s = c.next[s] {
				e := &c.slots[s]
				ok, rowHit, eAt, eOK := c.probeScan(e, c.allowPrecharge(e), now)
				if ok {
					if cand := (candidate{e, s, rowHit}); !found || c.cfg.Policy.better(cand, best, c.rrPtr, c.cfg.Delta) {
						best, found = cand, true
					}
				}
				if eOK && eAt < at {
					at = eAt
				}
			}
			b.readyAt = at
		}
	}
	return best, found
}

// queueWake reports the earliest cycle, at or after now, at which a queue
// scan could find an issuable command. It reads the only record there is:
// a live bank whose dirty bit is set answers now; otherwise the answer is
// the earliest of the live buckets' cached bounds and the first aging
// deadline at or after now. ok is false when nothing is queued, or when
// every bound is neverTry and no deadline is left: then only an Enqueue
// (which re-arms the wake) can unblock the queue. The invalidation
// contract above states why the answer is never late.
//
//sara:hotpath
func (c *Controller) queueWake(now sim.Cycle) (sim.Cycle, bool) {
	if c.npending == 0 {
		return 0, false
	}
	at := neverTry
	for w, live := range c.live {
		if live&c.dirty[w] != 0 {
			return now, true
		}
		for ; live != 0; live &= live - 1 {
			at = min(at, c.buckets[w<<6|bits.TrailingZeros64(live)].readyAt)
		}
	}
	if at <= now {
		return now, true // a bucket is due; no aging deadline answers earlier
	}
	if at = min(at, c.nextDeadline(now)); at == neverTry {
		return 0, false
	}
	return at, true
}
