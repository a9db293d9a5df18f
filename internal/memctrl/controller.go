package memctrl

import (
	"fmt"
	"math/bits"

	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

// Config parameterizes one per-channel controller.
type Config struct {
	// Channel is the DRAM channel this controller owns.
	Channel int
	// Policy selects the arbitration policy.
	Policy PolicyKind
	// Delta is Policy 2's row-buffer threshold (paper: 6).
	Delta txn.Priority
	// AgingT is the starvation limit: any transaction that has waited at
	// least this many cycles is served before policy order applies
	// (paper: 10000). Zero disables aging.
	AgingT sim.Cycle
	// QueueCaps splits the controller's entries across the five class
	// queues.
	QueueCaps QueueCaps
}

// DefaultConfig returns the paper's controller settings for a channel.
func DefaultConfig(channel int) Config {
	return Config{
		Channel:   channel,
		Policy:    QoS,
		Delta:     6,
		AgingT:    10000,
		QueueCaps: DefaultQueueCaps(),
	}
}

// Stats holds the controller's activity counters.
type Stats struct {
	Served       uint64 // transactions completed (CAS issued)
	ServedReads  uint64
	ServedWrites uint64
	// Row-locality classification of served transactions: a hit issued its
	// CAS against an already-open matching row; a miss had to activate a
	// closed bank; a conflict had to precharge another row first.
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	// AgedServes counts transactions served through the aging override.
	AgedServes uint64
	// PerClass counts served transactions per queue class.
	PerClass [txn.NumClasses]uint64
	// Enqueued counts admissions.
	Enqueued uint64
	// Refreshes counts REF commands issued; ForcedRefreshes those issued
	// with the postponement window exhausted; RefreshPrecharges the PREs
	// issued to drain open rows ahead of a forced REF.
	Refreshes         uint64
	ForcedRefreshes   uint64
	RefreshPrecharges uint64
}

// Work counts what the controller's scheduler did to reach its
// decisions: the simulator's own cost, not the simulated system's. It is
// kept apart from Stats, which describes the simulated system and must
// be identical in every kernel mode, while Work depends on how often the
// kernel ticks the controller.
type Work struct {
	Ticks      uint64 // Tick calls
	Scans      uint64 // queue scans: pickBuckets or pickFull
	EmptyScans uint64 // scans that found no issuable command
	Probes     uint64 // entries probed against the timing gates
	Bounds     uint64 // bank bounds computed
}

// Controller is one channel's transaction scheduler. It is driven by the
// SoC assembly: Enqueue from the NoC side, Tick once per cycle to issue at
// most one DRAM command.
type Controller struct {
	cfg    Config
	dram   *dram.DRAM
	mapper *dram.AddressMapper
	queues [txn.NumClasses]classQueue
	rrPtr  txn.Class // class whose turn is next on priority ties / RR

	// OnComplete is invoked when a transaction's DRAM phase finishes:
	// for reads, the cycle the last data beat leaves the device; for
	// writes, the cycle the write data has been absorbed. The SoC layer
	// adds the response-network latency before notifying the DMA.
	OnComplete func(t *txn.Transaction, done sim.Cycle)

	// OnRelease is invoked when a CAS frees a slot in a class queue that
	// was full — the controller-side credit return. The SoC layer wires
	// it to wake the NoC router feeding this controller, whose
	// event-driven arbiter sleeps while its heads are blocked on a full
	// queue instead of polling SpaceFor every cycle. Pops of non-full
	// queues return no credit: the upstream arbiter was not blocked on
	// this queue, so its dormancy window already covers the slot.
	OnRelease func(class txn.Class, now sim.Cycle)

	// trace is the command probe (see SetTrace).
	trace TraceFn

	stats Stats
	work  Work

	// bankHit caches, per (rank, bank), the highest priority among queued
	// transactions that hit the currently open row, offset by one so zero
	// means "no queued hit". Row-aware policies use it to avoid
	// precharging a row that still has useful hits queued. A flat array
	// indexed by rank*banks+bank keeps the per-cycle refresh free of map
	// traffic. It is maintained incrementally (bucketPush, bucketRemove
	// and rowChanged) and recounted from every bucket on full-rescan
	// passes.
	bankHit []uint16
	// rowAware marks policies that consult bankHit, gating its upkeep.
	rowAware bool

	// buckets index and count the queued entries by bank, each with its
	// bound; live is the bank bitmap that marks non-empty buckets. See
	// bucket.go for the incremental-maintenance and invalidation
	// contract.
	buckets []bucket
	live    bankMask

	// slots holds every queued entry once, sized to the queue capacity in
	// New; the class queues and the bank buckets index into it. next
	// links each slot to the next one of its bucket, or, for a free slot,
	// to the next free slot after free (-1 ends either list). So neither
	// an enqueue nor a bucket push ever grows a slice.
	slots []entry
	next  []int32
	free  int32

	// npending caches the total queued-transaction count across the five
	// class queues; Pending is on the controller's activity-hint path,
	// which the kernel's due-wake validation queries per probe.
	npending int

	// oldest is the earliest aging deadline of any queued entry
	// (nextDeadline(0)), neverTry when none or with aging off. An Enqueue
	// can lower it only when the queues were empty, and a CAS raises it
	// only when it serves an entry whose deadline it is; both keep it
	// exact, so Tick reads the aged test from it and queueWake the next
	// deadline, without walking the class queues.
	oldest sim.Cycle

	// gates is the device's timing state for this channel, read in place:
	// entries are evaluated against it with plain arithmetic instead of
	// per-entry device probes. Only this controller issues commands to
	// the channel, so the gates change only when it issues.
	gates *dram.Gates

	// nBanks caches the geometry for bankKey (fetching the full device
	// config per lookup is measurable on the scan path).
	nBanks int

	// Refresh machinery (one branch of cost when the device models no
	// refresh). refCfg caches the device's refresh parameters; rankPending
	// counts queued transactions per rank so opportunistic refresh can
	// tell an idle rank from a momentarily blocked one, and rankIdleFrom
	// records when each rank's pending count last dropped to zero — a
	// pull-in REF waits until the rank has been idle for a full tRFC, so
	// a window-limited source whose queue merely blinks empty between
	// requests does not eat a blackout at the worst moment. refNextAction
	// is the next cycle the refresh state machine could issue a command or
	// change the forced-rank mask, and the wake NextActivity reports so
	// skipped stretches cannot slide past a due refresh. It is the refresh
	// machine's own schedule, kept rather than derived per query because
	// deriving it asks the device about every rank.
	refreshOn     bool
	refCfg        dram.RefreshConfig
	nRanks        int
	rankPending   []int
	rankIdleFrom  []sim.Cycle
	refNextAction sim.Cycle

	// refBlocked[r] marks rank r as closed to new transaction commands
	// because its refresh postponement window is exhausted and the
	// controller is draining it for a forced REF. tickRefresh maintains it
	// from the device's RefreshForced state; the queue scan treats it as
	// an absolute timing gate.
	refBlocked []bool

	// wake is the controller's kernel wake handle. The only external
	// event that can move this controller's next action earlier is an
	// Enqueue from the NoC side (everything else — DRAM timing gates,
	// refresh cadence — is this controller's own state machine), so
	// Enqueue is the one place that pushes a re-arm into the kernel's
	// wake wheel; self-inflicted later wakes are reconciled lazily.
	wake sim.WakeHandle
}

// neverTry is the cycle that never comes: the bound of a bucket whose
// entries all wait on a queue change or a refresh rather than on a timing
// gate, and the aging deadline with aging off.
const neverTry = ^sim.Cycle(0)

const (
	neededNothing uint8 = iota
	neededAct
	neededPre
)

// New builds a controller for the given channel of d.
func New(cfg Config, d *dram.DRAM) *Controller {
	if cfg.Channel < 0 || cfg.Channel >= d.Config().Geometry.Channels {
		panic(fmt.Sprintf("memctrl: channel %d out of range", cfg.Channel))
	}
	geo := d.Config().Geometry
	nb := geo.Ranks * geo.Banks
	c := &Controller{
		cfg:        cfg,
		dram:       d,
		mapper:     d.Mapper(),
		bankHit:    make([]uint16, nb),
		rowAware:   cfg.Policy == FRFCFS || cfg.Policy == QoSRB,
		buckets:    make([]bucket, nb),
		live:       newBankMask(nb),
		oldest:     neverTry,
		nBanks:     geo.Banks,
		nRanks:     geo.Ranks,
		refreshOn:  d.RefreshEnabled(),
		refCfg:     d.Config().Refresh,
		gates:      d.Gates(cfg.Channel),
		refBlocked: make([]bool, geo.Ranks),
	}
	if c.refreshOn {
		c.rankPending = make([]int, geo.Ranks)
		c.rankIdleFrom = make([]sim.Cycle, geo.Ranks)
	}
	total := cfg.QueueCaps.Total()
	queued := make([]int32, total)
	for i, off := 0, 0; i < len(c.queues); i++ {
		n := cfg.QueueCaps[i]
		c.queues[i] = classQueue{class: txn.Class(i), cap: n, slots: queued[off : off : off+n]}
		off += n
	}
	c.slots = make([]entry, total)
	c.next = make([]int32, total)
	c.free = -1
	for s := total - 1; s >= 0; s-- {
		c.next[s], c.free = c.free, int32(s)
	}
	for k := range c.buckets {
		c.buckets[k].head, c.buckets[k].tail, c.buckets[k].resv = -1, -1, -1
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Work returns a snapshot of the scheduler's work counters.
func (c *Controller) Work() Work { return c.work }

// SpaceFor reports whether the class queue can admit one more transaction.
// The NoC uses it as the credit check before forwarding.
func (c *Controller) SpaceFor(class txn.Class) bool {
	return !c.queues[class].full()
}

// Occupancy reports the number of queued transactions in class.
func (c *Controller) Occupancy(class txn.Class) int {
	return len(c.queues[class].slots)
}

// Enqueue admits t at cycle now. The caller must have checked SpaceFor.
//
//sara:hotpath
func (c *Controller) Enqueue(t *txn.Transaction, now sim.Cycle) {
	loc := c.mapper.Decode(t.Addr)
	if loc.Channel != c.cfg.Channel {
		panic(fmt.Sprintf("memctrl: txn %d routed to channel %d, controller owns %d",
			t.ID, loc.Channel, c.cfg.Channel))
	}
	t.Enqueue = now
	t.RowPath = neededNothing
	q := &c.queues[t.Class]
	if q.full() {
		panic(fmt.Sprintf("memctrl: queue %s overflow", q.class))
	}
	s := c.free
	c.free = c.next[s]
	c.slots[s] = entry{t: t, loc: loc}
	q.slots = append(q.slots, s) //sara:alloc-ok New sizes every queue to its depth
	c.npending++
	c.bucketPush(s, now)
	c.stats.Enqueued++
	if c.refreshOn {
		c.rankPending[loc.Rank]++
	}
	// The new entry changed only its own bank, and bucketPush re-bounded
	// it, so the kernel wake is re-armed at that bound, no earlier than
	// now (the upstream router ticks before this controller, so an entry
	// issuable at once is schedulable this cycle) and no later than the
	// entry's aging deadline, which no earlier wake answer covered when
	// the queues were empty. A wake already at or below that makes the
	// re-arm a no-op.
	at := max(now, c.buckets[c.bankKey(loc)].readyAt)
	if c.cfg.AgingT > 0 {
		c.oldest = min(c.oldest, now+c.cfg.AgingT)
		at = min(at, now+c.cfg.AgingT)
	}
	c.wake.Rearm(at)
}

// BindWake implements sim.WakeBinder: the kernel hands the controller its
// wake handle at registration, for the Enqueue re-arm.
func (c *Controller) BindWake(h sim.WakeHandle) { c.wake = h }

// Pending reports the total number of queued transactions.
func (c *Controller) Pending() int { return c.npending }

// NextActivity implements sim.Idler: the queue's wake (queueWake), read
// from live state, and with refresh modeled the refresh state machine's —
// REF issue, forced-drain precharges and tREFI boundary crossings — so a
// skipped stretch can never slide past a due refresh or mis-time a tRFC
// blackout.
//
//sara:hotpath
func (c *Controller) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	at, ok := c.queueWake(now)
	if !c.refreshOn {
		return at, ok
	}
	refAt := max(c.refNextAction, now)
	if !ok || refAt < at {
		return refAt, true
	}
	return at, true
}

// nextDeadline reports the earliest aging deadline at or after from: the
// first cycle from then on at which a queued transaction crosses the aging
// limit (neverTry with aging off, or when none crosses from then on).
// Queues are FIFO and Enqueue stamps are monotone, so each class's first
// entry whose deadline is at or after from carries the class minimum;
// from 0 that is the head, the queue's oldest entry.
func (c *Controller) nextDeadline(from sim.Cycle) sim.Cycle {
	at := neverTry
	if c.cfg.AgingT == 0 {
		return at
	}
	for qi := range c.queues {
		for _, s := range c.queues[qi].slots {
			if d := c.slots[s].t.Enqueue + c.cfg.AgingT; d >= from {
				at = min(at, d)
				break
			}
		}
	}
	return at
}

// Tick issues at most one DRAM command for this channel.
//
//sara:hotpath
func (c *Controller) Tick(now sim.Cycle) {
	c.work.Ticks++
	if c.refreshOn && (now >= c.refNextAction || c.wake.Reference()) {
		if c.tickRefresh(now) {
			return // the refresh machine consumed this cycle's command slot
		}
	}
	// The common case walks the per-bank buckets (pickBuckets), probing
	// only banks whose bound has come due. Aged cycles — and every cycle
	// in the kernel's reference mode — take the full rescan (pickFull),
	// which re-derives everything from the queues.
	var best candidate
	var found bool
	if aged := now >= c.oldest; aged || c.wake.Reference() {
		best, found = c.pickFull(now, aged)
	} else {
		best, found = c.pickBuckets(now)
	}
	c.work.Scans++
	if !found {
		c.work.EmptyScans++
		return
	}
	c.issue(best, now)
	if c.refreshOn {
		// The issued command changed bank or queue state the refresh
		// machine keys on (open rows, pending counts); re-evaluate next
		// cycle rather than trusting a stale wake time.
		c.refNextAction = now + 1
	}
}

// tickRefresh runs the per-rank refresh state machine and issues at most
// one command: a REF, or a PRE draining an open row of a rank whose
// postponement window is exhausted. Forced work goes first; then ranks
// with no queued transactions refresh opportunistically, pulling in up to
// the window's depth ahead of schedule so bursts land on fully credited
// ranks. It returns true when it consumed this cycle's command slot; when
// it issues nothing it refreshes the forced-rank mask the queue scan
// honors and recomputes refNextAction, the earliest cycle it could act.
func (c *Controller) tickRefresh(now sim.Cycle) bool {
	ch := c.cfg.Channel
	for r := 0; r < c.nRanks; r++ {
		if !c.dram.RefreshForced(ch, r, now) {
			continue
		}
		if c.dram.CanRefresh(ch, r, now) {
			c.issueRefresh(r, now, true)
			return true
		}
		if b, ok := c.drainBank(r, now); ok {
			c.issueRefreshPre(r, b, now)
			return true
		}
	}
	for r := 0; r < c.nRanks; r++ {
		if c.rankPending[r] != 0 || now < c.rankIdleFrom[r]+c.refCfg.TRFC {
			continue // not idle, or not yet idle for a blackout's length
		}
		if c.dram.CanRefresh(ch, r, now) {
			c.issueRefresh(r, now, false)
			return true
		}
	}
	for r := 0; r < c.nRanks; r++ {
		c.refBlocked[r] = c.dram.RefreshForced(ch, r, now)
	}
	c.refNextAction = c.nextRefreshAction(now)
	return false
}

// drainBank picks the lowest-indexed open bank of rank r that is past its
// precharge gate, for the forced-refresh drain.
func (c *Controller) drainBank(r int, now sim.Cycle) (int, bool) {
	for b := 0; b < c.nBanks; b++ {
		bs := &c.gates.Banks[r*c.nBanks+b]
		if bs.Open && now >= bs.NextPre {
			return b, true
		}
	}
	return 0, false
}

// earliestPre reports the earliest precharge gate among rank r's open
// banks (neverTry if none is open).
func (c *Controller) earliestPre(r int) sim.Cycle {
	at := neverTry
	for b := 0; b < c.nBanks; b++ {
		bs := &c.gates.Banks[r*c.nBanks+b]
		if bs.Open && bs.NextPre < at {
			at = bs.NextPre
		}
	}
	return at
}

// issueRefresh performs a REF to rank r, re-bounds the rank's banks and
// wakes the refresh machine next cycle: the REF moved every activate gate
// of the rank and may have cleared the forced mask over queued work.
func (c *Controller) issueRefresh(r int, now sim.Cycle, forced bool) {
	if c.trace != nil {
		c.trace(c.cfg.Channel, now, 0, 'R')
	}
	c.dram.Refresh(c.cfg.Channel, r, now)
	c.refBlocked[r] = false
	c.boundRank(r, now)
	c.stats.Refreshes++
	if forced {
		c.stats.ForcedRefreshes++
	}
	c.refNextAction = now + 1
}

// issueRefreshPre precharges bank b of rank r on behalf of a forced
// refresh, overriding any transaction's bank reservation (the reserving
// transaction re-activates once the blackout passes).
func (c *Controller) issueRefreshPre(r, b int, now sim.Cycle) {
	if c.trace != nil {
		c.trace(c.cfg.Channel, now, 0, 'P')
	}
	loc := dram.Location{Channel: c.cfg.Channel, Rank: r, Bank: b}
	c.dram.Precharge(loc, now)
	key := c.bankKey(loc)
	c.rowChanged(key)
	c.rebound(key, now)
	c.stats.RefreshPrecharges++
	c.refNextAction = now + 1
}

// nextRefreshAction reports the earliest cycle the refresh machine could
// issue a command or change the forced-rank mask. Reporting early is
// always safe — the tick re-evaluates and goes back to sleep — but
// reporting late would let idle skipping slide past a due refresh, so
// every branch is a provable lower bound: forced drains wake on the exact
// DRAM gate, idle ranks on their REF-ready cycle, and everything else on
// the next tREFI boundary (the only cycle owed counts change).
func (c *Controller) nextRefreshAction(now sim.Cycle) sim.Cycle {
	ch := c.cfg.Channel
	best := neverTry
	for r := 0; r < c.nRanks; r++ {
		var at sim.Cycle
		owed := c.dram.RefreshOwed(ch, r, now)
		switch {
		case owed >= c.refCfg.Window:
			readyAt, closed := c.dram.RefreshReadyAt(ch, r)
			if closed {
				at = readyAt
			} else {
				at = c.earliestPre(r)
			}
		case c.rankPending[r] == 0 && owed > -c.refCfg.Window:
			readyAt, closed := c.dram.RefreshReadyAt(ch, r)
			if closed {
				at = readyAt
				if idleAt := c.rankIdleFrom[r] + c.refCfg.TRFC; idleAt > at {
					at = idleAt
				}
			} else {
				// An idle rank holding an open row refreshes only once
				// forced; re-check at the next boundary.
				at = c.dram.NextRefreshBoundary(ch, r, now)
			}
		default:
			at = c.dram.NextRefreshBoundary(ch, r, now)
		}
		if at < now+1 {
			at = now + 1 // this tick already declined to act
		}
		if at < best {
			best = at
		}
	}
	return best
}

// pickFull is the full rescan: every queued entry of every class is
// probed, in queue order, and the row-hit table recomputed. It serves the
// aged pass and the kernel's reference mode. With aged set, only over-age
// entries are candidates, oldest first, and they may precharge past
// queued row hits (the "clear the backlog" rule of Section 3.3); when
// none of them can issue, every entry competes under the policy.
//
// Before either pass it recounts and re-bounds every live bank, the
// reference's from-scratch bankHit among them. That is also what keeps
// the bounds sound across aging: a bank whose oldest entry is now over
// age gets its guarded misses' precharge gate in its bound here, at the
// crossing, before the aged pass may return.
func (c *Controller) pickFull(now sim.Cycle, aged bool) (best candidate, found bool) {
	for w, live := range c.live {
		for ; live != 0; live &= live - 1 {
			k := w<<6 | bits.TrailingZeros64(live)
			c.rowChanged(k)
			c.rebound(k, now)
		}
	}
	if aged {
		for qi := range c.queues {
			for _, s := range c.queues[qi].slots {
				e := &c.slots[s]
				if now < e.t.Enqueue+c.cfg.AgingT {
					continue
				}
				if ok, rowHit, _, _ := c.probeScan(e, true, now); ok {
					if cand := (candidate{e, s, rowHit}); !found || olderFirst(cand, best) {
						best, found = cand, true
					}
				}
			}
		}
		if found {
			return best, true
		}
	}
	for qi := range c.queues {
		for _, s := range c.queues[qi].slots {
			e := &c.slots[s]
			if ok, rowHit, _, _ := c.probeScan(e, c.allowPrecharge(e), now); ok {
				if cand := (candidate{e, s, rowHit}); !found || c.cfg.Policy.better(cand, best, c.rrPtr, c.cfg.Delta) {
					best, found = cand, true
				}
			}
		}
	}
	return best, found
}

// probeScan evaluates entry e against the channel's timing gates: whether
// its next command can issue at now, whether its CAS would hit the open
// row, and the earliest cycle the command clears the timing gates (atOK
// false when blocked on a foreign reservation or a disallowed precharge).
func (c *Controller) probeScan(e *entry, allowPre bool, now sim.Cycle) (ok, rowHit bool, at sim.Cycle, atOK bool) {
	c.work.Probes++
	if c.refBlocked[e.loc.Rank] {
		// The rank is being drained for a forced refresh: nothing issues
		// until the REF lands, and the refresh machine owns that wake.
		return false, false, 0, false
	}
	b := &c.gates.Banks[c.bankKey(e.loc)]
	if b.ReservedBy != 0 && b.ReservedBy != e.t.ID {
		return false, false, 0, false
	}
	switch {
	case b.Open && b.Row == e.loc.Row:
		if e.t.Kind == txn.Read {
			at = b.NextRead
			if c.gates.ChRead > at {
				at = c.gates.ChRead
			}
		} else {
			at = b.NextWrite
			if c.gates.ChWrite > at {
				at = c.gates.ChWrite
			}
		}
		return now >= at, true, at, true
	case b.Open:
		if !allowPre {
			return false, false, 0, false
		}
		return now >= b.NextPre, false, b.NextPre, true
	default:
		at = b.NextAct
		if g := c.gates.RankAct[e.loc.Rank]; g > at {
			at = g
		}
		return now >= at, false, at, true
	}
}

func (c *Controller) bankKey(loc dram.Location) int {
	return loc.Rank*c.nBanks + loc.Bank
}

// allowPrecharge reports whether a row-aware policy lets e close its
// bank's open row even though queued transactions still hit it. FR-FCFS
// never does (open-page); QoS-RB lets an urgent transaction (priority at
// or above delta) precharge past lower-priority hits, mirroring Policy 2's
// arbitration rule.
func (c *Controller) allowPrecharge(e *entry) bool {
	if !c.rowAware {
		return true // rowAware is the single gate for bankHit upkeep and use
	}
	hit := c.bankHit[c.bankKey(e.loc)]
	if hit == 0 {
		return true
	}
	if c.cfg.Policy == FRFCFS {
		return false
	}
	hitPrio := txn.Priority(hit - 1)
	return e.t.Priority >= c.cfg.Delta && e.t.Priority > hitPrio
}

// TraceFn observes one issued DRAM command on channel ch at cycle now:
// kind is 'A' (activate), 'P' (precharge), 'C' (CAS) or 'R' (refresh,
// id 0); id is the transaction the command serves. It is a per-controller
// probe, like the router probes of internal/noc: a nil-checked field
// installed through SetTrace (for a whole System, through
// core.System.Probe), zero-cost while unset.
type TraceFn = func(ch int, now sim.Cycle, id uint64, kind byte)

// SetTrace installs fn as the controller's command probe (nil disables
// it). Install it only while the controller is not running.
func (c *Controller) SetTrace(fn TraceFn) { c.trace = fn }

// issue performs the picked entry's next command at cycle now.
func (c *Controller) issue(best candidate, now sim.Cycle) {
	e := *best.e // a copy: a CAS frees the slot
	key := c.bankKey(e.loc)
	bs := &c.gates.Banks[key]
	open, hit := bs.Open, bs.Open && bs.Row == e.loc.Row
	if c.trace != nil {
		k := byte('C')
		if open && !hit {
			k = 'P'
		} else if !open {
			k = 'A'
		}
		c.trace(c.cfg.Channel, now, e.t.ID, k)
	}
	switch {
	case hit:
		c.issueCAS(e, best.s, now)
	case open:
		c.dram.Reserve(e.loc, e.t.ID)
		c.dram.Precharge(e.loc, now)
		e.t.RowPath = neededPre
	default:
		c.dram.Reserve(e.loc, e.t.ID)
		c.dram.Activate(e.loc, now)
		if e.t.RowPath != neededPre {
			e.t.RowPath = neededAct
		}
	}
	if !hit {
		c.buckets[key].resv = best.s
		c.rowChanged(key)
	}
	c.rebound(key, now)
}

func (c *Controller) issueCAS(e entry, s int32, now sim.Cycle) {
	var done sim.Cycle
	if e.t.Kind == txn.Read {
		done = c.dram.Read(e.loc, now)
		c.stats.ServedReads++
	} else {
		done = c.dram.Write(e.loc, now)
		c.stats.ServedWrites++
	}
	c.dram.Release(e.loc, e.t.ID)
	q := &c.queues[e.t.Class]
	wasFull := q.full()
	q.remove(s)
	c.npending--
	if c.cfg.AgingT > 0 && e.t.Enqueue+c.cfg.AgingT == c.oldest {
		c.oldest = c.nextDeadline(0)
	}
	c.bucketRemove(c.bankKey(e.loc), s)
	c.slots[s] = entry{}
	c.next[s] = c.free
	c.free = s
	if wasFull && c.OnRelease != nil {
		c.OnRelease(e.t.Class, now)
	}
	if c.refreshOn {
		c.rankPending[e.loc.Rank]--
		if c.rankPending[e.loc.Rank] == 0 {
			c.rankIdleFrom[e.loc.Rank] = now
		}
	}

	switch e.t.RowPath {
	case neededPre:
		c.stats.RowConflicts++
	case neededAct:
		c.stats.RowMisses++
	default:
		c.stats.RowHits++
	}

	c.stats.Served++
	c.stats.PerClass[e.t.Class]++
	if c.cfg.AgingT > 0 && now >= e.t.Enqueue+c.cfg.AgingT {
		c.stats.AgedServes++
	}
	// Advance the round-robin pointer past the class just served.
	c.rrPtr = txn.Class((int(e.t.Class) + 1) % txn.NumClasses)

	if c.OnComplete != nil {
		c.OnComplete(e.t, done)
	}
}
