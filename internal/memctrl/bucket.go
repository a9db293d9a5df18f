package memctrl

import (
	"fmt"
	"math/bits"

	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

// Per-bank candidate buckets: incremental maintenance of the queue scan,
// and the controller's only record of when it acts next.
//
// The controller's scheduling scan used to re-probe every queued
// transaction against the channel's timing gates on every eligible cycle.
// Under the saturated loaded phase that full rescan dominated simulation
// time, and it grows with queue depth rather than with actual activity.
// The buckets below replace it: every queued entry is indexed by its bank
// (bankKey = rank*banks+bank). Every entry of a bank shares that bank's
// gates, and probeScan's answer depends on an entry through only three
// things: whether it hits the open row, whether it is a read or a write,
// and allowPrecharge. So each bucket counts its entries by those
// categories (read hits, write hits, misses, and the misses the open-page
// guard lets close the row) and keeps the slot that holds the bank's
// reservation, and bankBound turns the counts and the bank's dram.Gates,
// read in place, into a lower bound on the earliest cycle any entry of
// the bank could issue, with at most four compares. The bound is cached
// as bucket.readyAt.
//
// A live-bank bitmap, 64 banks to a word so any geometry fits, marks the
// non-empty buckets. A scan (pickBuckets) walks only the live banks
// (bits.TrailingZeros64 over the words), skips a bank whose bound is in
// the future without probing a single entry, re-bounds a due bank in
// O(1) and skips it too if the fresh bound has moved past now, and walks
// the entries of the banks left, keeping the best candidate as it goes.
// The bounds, read in place, are the controller's wake answer (queueWake,
// through NextActivity): the earliest bound or coming aging deadline.
//
// # Invalidation contract
//
// bucket.readyAt must remain a LOWER bound on the true earliest-issuable
// cycle of every entry in a live bucket. Probing too early is always safe
// (the scan re-bounds the bank and goes back to sleep); probing too late
// would miss a command and break skip-vs-step equivalence. There is no
// dirty-bank mask: the bound is computed afresh at every event that can
// move it earlier, so a cached bound is never later than a fresh one.
// Every input of bankBound is either a device timing gate, which only
// moves later (the monotonicity contract on dram.Gates), or bank-local
// state that changes only at an event this controller causes or sees,
// where it recomputes the bank's counts and bound:
//
//   - enqueue: bucketPush files the new entry in its category, raises
//     the cached row-hit priority (bankHit) if the entry hits the open
//     row and then recounts the guarded misses, and re-bounds the bank.
//     Enqueue re-arms the kernel wake at the bank's bound, no earlier
//     than now, and no later than the new entry's aging deadline: the one
//     event from outside the controller.
//   - ACT or PRE, by a transaction or by a forced-refresh drain: the
//     bank's row state changed, so rowChanged recounts every category
//     from the bucket (a closed bank's entries are all misses, so a PRE
//     needs no walk) and re-bounds the bank. A transaction's ACT or PRE
//     also takes the bank's reservation.
//   - CAS: the served entry, a hit, leaves its bucket (bucketRemove) and
//     its hit count is decremented in place. The bucket's row-hit picture
//     is recounted only when the served entry carried the bank's highest
//     queued hit priority, the one case where the open-page guard
//     (allowPrecharge) can unblock followers. The reservation is
//     released and the bank re-bounded. The entry that empties a bucket
//     clears the bank's live bit.
//   - REF issue: the rank's forced-drain gate (refBlocked) clears;
//     issueRefresh re-bounds the rank's live banks. The opposite
//     transition (a drain starting) only delays entries and needs none.
//
// Beyond its own bank, a command moves only ChRead, ChWrite or the
// rank's RankAct, which only move later, and the round-robin pointer,
// which reorders candidates but readies none. So another bank's bound can
// become stale-early, never stale-late; a stale-early bound costs one
// O(1) re-bound, in pickBuckets when the bank comes due or in queueWake
// when the wake is asked for.
//
// Entry attributes the probe reads (Priority, Urgent, Enqueue, ID,
// decoded Location) are stamped at injection and immutable while queued,
// so no adapter activity can invalidate a parked bucket.
//
// Aging is the one non-bank-local input: once any class-queue head
// crosses the starvation limit the "serve only over-age work" rule makes
// the candidate set a function of age, not of banks, so the controller
// falls back to the full rescan (pickFull) for those (rare) cycles. An
// over-age entry may precharge past the open-page guard, so a bank whose
// oldest entry (its bucket head) is over age counts its guarded misses'
// precharge gate in its bound. A deadline crossing is the one readiness
// change no event marks, so the wake answer includes the first deadline
// at or after the queried cycle, and pickFull, which runs at every
// crossing, recounts and re-bounds every live bank before it may return.
//
// The kernel's reference mode keeps the contract honest: it ticks the
// controller every cycle, and the controller, whose wake handle then
// reports Reference, re-derives candidates from scratch every tick — no
// cached bounds, every bank's counts and bankHit recounted, refresh
// machine polled every cycle — giving the differential suites a stepped
// reference that any stale bound, missed recount or late wake answer
// diverges from.

// bucket indexes and counts the queued entries of one bank.
type bucket struct {
	// readyAt is the lower bound on the earliest cycle any entry in this
	// bucket could issue (bankBound at the bank's last event or re-bound);
	// neverTry when every entry waits on a queue change or a refresh
	// rather than on a timing gate. It is meaningless while the bank's
	// live bit is clear.
	readyAt sim.Cycle
	// head and tail are the bank's first and last entries in arrival
	// order, as slots linked through Controller.next; -1 when empty.
	head, tail int32
	// resv is the slot of the entry holding the bank's reservation, or -1.
	resv int32
	// hitR and hitW count the queued reads and writes that hit the open
	// row; miss counts the rest (every entry while the bank is closed),
	// and missOK the misses allowPrecharge lets close the open row.
	hitR, hitW, miss, missOK int32
}

// bankMask is a bitmap over bank keys, 64 banks to a word.
type bankMask []uint64

func newBankMask(n int) bankMask { return make(bankMask, (n+63)/64) }

func (m bankMask) set(k int)   { m[k>>6] |= 1 << (k & 63) }
func (m bankMask) clear(k int) { m[k>>6] &^= 1 << (k & 63) }

// entryHit is THE queued row-hit-priority rule: the entry's priority
// offset by one when a CAS would hit the bank's open row (so zero means
// "no hit"). The incremental maintainers (bucketPush, bucketRemove) and
// the recount (rowChanged) all evaluate this one function — the
// incremental and reference bankHit values must stay bit-identical for
// skip-vs-step equivalence, so the rule must not fork.
func entryHit(bs *dram.Bank, e *entry) uint16 {
	if !bs.Open || bs.Row != e.loc.Row {
		return 0
	}
	return uint16(e.t.Priority) + 1
}

// bucketPush appends slot s to its bank's bucket, files it in the bank's
// counts and re-bounds the bank. When the entry hits the bank's open row
// and raises the cached row-hit priority, the guarded misses are
// recounted against the raised guard.
func (c *Controller) bucketPush(s int32, now sim.Cycle) {
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
	switch p := entryHit(&c.gates.Banks[key], e); {
	case p == 0:
		b.miss++
		if c.allowPrecharge(e) {
			b.missOK++
		}
	case c.rowAware && p > c.bankHit[key]:
		c.bankHit[key] = p
		c.recountGuarded(key)
		fallthrough
	default:
		if e.t.Kind == txn.Read {
			b.hitR++
		} else {
			b.hitW++
		}
	}
	c.rebound(key, now)
}

// bucketRemove unlinks slot s, an entry a CAS just served, from bank
// key's bucket and takes it out of the bank's counts.
func (c *Controller) bucketRemove(key int, s int32) {
	b := &c.buckets[key]
	prev := int32(-1)
	at := b.head
	for ; at >= 0 && at != s; prev, at = at, c.next[at] {
	}
	if at < 0 {
		panic(fmt.Sprintf("memctrl: bucket remove of unknown slot %d", s))
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
	if b.resv == s {
		b.resv = -1
	}
	e := &c.slots[s]
	if e.t.Kind == txn.Read {
		b.hitR--
	} else {
		b.hitW--
	}
	if c.rowAware && entryHit(&c.gates.Banks[key], e) == c.bankHit[key] {
		c.rowChanged(key) // the guard may drop; rebuild it from the bucket
	}
}

// rowChanged recounts bank key's categories and its cached row-hit
// priority from the bucket, against the bank's row state as the last
// command left it.
func (c *Controller) rowChanged(key int) {
	b := &c.buckets[key]
	bs := &c.gates.Banks[key]
	if !bs.Open {
		b.miss += b.hitR + b.hitW
		b.hitR, b.hitW, b.missOK = 0, 0, b.miss
		c.bankHit[key] = 0
		return
	}
	b.hitR, b.hitW, b.miss = 0, 0, 0
	hit := uint16(0)
	for s := b.head; s >= 0; s = c.next[s] {
		e := &c.slots[s]
		p := entryHit(bs, e)
		switch {
		case p == 0:
			b.miss++
		case e.t.Kind == txn.Read:
			b.hitR++
		default:
			b.hitW++
		}
		hit = max(hit, p)
	}
	if c.rowAware {
		c.bankHit[key] = hit
	}
	c.recountGuarded(key)
}

// recountGuarded recounts bank key's misses that allowPrecharge lets
// close the open row, against the bank's current bankHit.
func (c *Controller) recountGuarded(key int) {
	b := &c.buckets[key]
	switch {
	case c.bankHit[key] == 0:
		b.missOK = b.miss
	case c.cfg.Policy == FRFCFS:
		b.missOK = 0
	default:
		b.missOK = 0
		for s := b.head; s >= 0; s = c.next[s] {
			if e := &c.slots[s]; entryHit(&c.gates.Banks[key], e) == 0 && c.allowPrecharge(e) {
				b.missOK++
			}
		}
	}
}

// bankBound is live bank key's bound from its counts and gates, read in
// place: the earliest gate among its non-empty categories. A closed
// bank's entries all wait on its ACT gate. An open reserved bank is
// bounded by its reserving entry alone, the only one that may issue, and
// a hit: a reservation is taken at the entry's PRE or ACT, and only the
// reserving entry may activate the bank again. A rank drained for a
// forced refresh waits on the refresh machine, and so does a bank whose
// every entry the open-page guard holds back. Guarded misses count once
// the bank's oldest entry is over age at now, when the aged pass may
// precharge past the guard.
//
//sara:hotpath
func (c *Controller) bankBound(key int, now sim.Cycle) sim.Cycle {
	c.work.Bounds++
	r := key / c.nBanks
	if c.refBlocked[r] {
		return neverTry
	}
	bs := &c.gates.Banks[key]
	if !bs.Open {
		return max(bs.NextAct, c.gates.RankAct[r])
	}
	b := &c.buckets[key]
	if b.resv >= 0 {
		if c.slots[b.resv].t.Kind == txn.Read {
			return max(bs.NextRead, c.gates.ChRead)
		}
		return max(bs.NextWrite, c.gates.ChWrite)
	}
	at := neverTry
	if b.hitR > 0 {
		at = max(bs.NextRead, c.gates.ChRead)
	}
	if b.hitW > 0 {
		at = min(at, max(bs.NextWrite, c.gates.ChWrite))
	}
	if b.missOK > 0 || b.miss > 0 && c.cfg.AgingT > 0 && now >= c.slots[b.head].t.Enqueue+c.cfg.AgingT {
		at = min(at, bs.NextPre)
	}
	return at
}

// rebound recomputes bank key's bound if the bank is live.
func (c *Controller) rebound(key int, now sim.Cycle) {
	if b := &c.buckets[key]; b.head >= 0 {
		b.readyAt = c.bankBound(key, now)
	}
}

// boundRank re-bounds every live bank of rank r.
func (c *Controller) boundRank(r int, now sim.Cycle) {
	for k := r * c.nBanks; k < (r+1)*c.nBanks; k++ {
		c.rebound(k, now)
	}
}

// pickBuckets is the incremental scan: buckets parked in the future are
// skipped without any per-entry work; a due bucket is re-bounded first,
// and only a bank still due walks its entries (a reserved bank only the
// reserving entry). The walk reads the bank's category gates once and
// tests each entry against its category's gate alone, checking the
// open-page guard only for misses whose precharge gate is open: a due
// bank is neither reserved by another entry nor drained for a refresh,
// so that is probeScan's answer. Empty buckets are not visited at all: the
// scan walks the set bits of the live mask, in ascending bank order,
// keeping the best candidate so far under the policy, so it meets
// candidates in the order a walk over every bucket would. It is only
// valid while no queued transaction is over the aging limit (the caller
// checks), because aging changes the candidate rule globally.
//
//sara:hotpath
func (c *Controller) pickBuckets(now sim.Cycle) (best candidate, found bool) {
	for w, live := range c.live {
		for ; live != 0; live &= live - 1 {
			k := w<<6 | bits.TrailingZeros64(live)
			b := &c.buckets[k]
			if b.readyAt > now {
				continue
			}
			if b.readyAt = c.bankBound(k, now); b.readyAt > now {
				continue
			}
			s, end := b.head, int32(-1)
			if b.resv >= 0 {
				s, end = b.resv, c.next[b.resv]
			}
			bs := &c.gates.Banks[k]
			readOK := max(bs.NextRead, c.gates.ChRead) <= now
			writeOK := max(bs.NextWrite, c.gates.ChWrite) <= now
			preOK := b.missOK > 0 && bs.NextPre <= now
			for ; s != end; s = c.next[s] {
				c.work.Probes++
				e := &c.slots[s]
				hit := bs.Open && bs.Row == e.loc.Row
				var ok bool
				switch {
				case !bs.Open:
					ok = true // the bank is due on its ACT gate
				case hit && e.t.Kind == txn.Read:
					ok = readOK
				case hit:
					ok = writeOK
				default:
					ok = preOK && c.allowPrecharge(e)
				}
				if ok {
					if cand := (candidate{e, s, hit}); !found || c.cfg.Policy.better(cand, best, c.rrPtr, c.cfg.Delta) {
						best, found = cand, true
					}
				}
			}
		}
	}
	return best, found
}

// queueWake reports the earliest cycle, at or after now, at which a queue
// scan could find an issuable command. It reads the only record there is:
// the earliest of the live buckets' bounds, re-bounding in O(1) a bank
// whose bound has come due (it may be stale-early), and the first aging
// deadline at or after now. ok is false when nothing is queued, or when
// every bound is neverTry and no deadline is left: then only an Enqueue
// (which re-arms the wake) or a REF (whose refresh machine reports its
// own wake) can unblock the queue. The invalidation contract above states
// why the answer is never late.
//
//sara:hotpath
func (c *Controller) queueWake(now sim.Cycle) (sim.Cycle, bool) {
	if c.npending == 0 {
		return 0, false
	}
	at := neverTry
	for w, live := range c.live {
		for ; live != 0; live &= live - 1 {
			k := w<<6 | bits.TrailingZeros64(live)
			b := &c.buckets[k]
			if b.readyAt <= now {
				if b.readyAt = c.bankBound(k, now); b.readyAt <= now {
					return now, true // a bank is due; no deadline answers earlier
				}
			}
			at = min(at, b.readyAt)
		}
	}
	dl := c.oldest
	if dl < now {
		dl = c.nextDeadline(now)
	}
	if at = min(at, dl); at == neverTry {
		return 0, false
	}
	return at, true
}
