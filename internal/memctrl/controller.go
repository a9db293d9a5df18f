package memctrl

import (
	"fmt"

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

	// scratch is reused every cycle to collect issuable candidates.
	scratch []candidate
	// aged marks that scratch currently holds only over-age candidates.
	agedPass bool
	// bankHit caches, per (rank, bank), the highest priority among queued
	// transactions that hit the currently open row, offset by one so zero
	// means "no queued hit". Row-aware policies use it to avoid
	// precharging a row that still has useful hits queued. A flat array
	// indexed by rank*banks+bank keeps the per-cycle refresh free of map
	// traffic. It is maintained incrementally (bucketPush/bankChanged)
	// and recomputed from scratch only on full-rescan passes.
	bankHit []uint16
	// rowAware marks policies that consult bankHit, gating its upkeep.
	rowAware bool

	// buckets index the queued entries by bank; see bucket.go for the
	// incremental-maintenance and invalidation contract.
	buckets []bucket

	// npending caches the total queued-transaction count across the five
	// class queues; Pending is on the controller's activity-hint path,
	// which the kernel's wake-heap validation queries per probe.
	npending int

	// nextTry is the next cycle a queue scan can possibly yield a
	// command. After a scan finds nothing issuable, the blockers are pure
	// DRAM timing (plus aging thresholds), both of which are exactly
	// predictable, and nothing outside this controller mutates its
	// channel's state — so Tick sleeps until nextTry or the next Enqueue
	// instead of re-scanning every cycle. neverTry means no queued
	// transaction can ever issue without a queue change.
	nextTry sim.Cycle

	// scan is the per-scan snapshot of the channel's DRAM timing state;
	// entries are evaluated against it with plain arithmetic instead of
	// per-entry device probes.
	scan dram.ScanState

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
	// change the forced-rank mask — the refresh analogue of nextTry, and
	// the wake NextActivity reports so skipped stretches cannot slide past
	// a due refresh.
	refreshOn     bool
	refCfg        dram.RefreshConfig
	nRanks        int
	rankPending   []int
	rankIdleFrom  []sim.Cycle
	refNextAction sim.Cycle

	// wake is the controller's kernel wake handle. The only external
	// event that can move this controller's next action earlier is an
	// Enqueue from the NoC side (everything else — DRAM timing gates,
	// refresh cadence — is this controller's own state machine), so
	// Enqueue is the one place that pushes a re-arm into the kernel's
	// wake heap; self-inflicted later wakes are reconciled lazily.
	wake sim.WakeHandle
}

// neverTry marks a dormant controller whose queue contents must change
// before any command can issue.
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
	c := &Controller{
		cfg:       cfg,
		dram:      d,
		mapper:    d.Mapper(),
		bankHit:   make([]uint16, geo.Ranks*geo.Banks),
		rowAware:  cfg.Policy == FRFCFS || cfg.Policy == QoSRB,
		buckets:   make([]bucket, geo.Ranks*geo.Banks),
		nBanks:    geo.Banks,
		nRanks:    geo.Ranks,
		refreshOn: d.RefreshEnabled(),
		refCfg:    d.Config().Refresh,
	}
	if c.refreshOn {
		c.rankPending = make([]int, geo.Ranks)
		c.rankIdleFrom = make([]sim.Cycle, geo.Ranks)
	}
	for i := range c.queues {
		c.queues[i] = classQueue{class: txn.Class(i), cap: cfg.QueueCaps[i]}
	}
	d.InitScan(&c.scan)
	// The snapshot is filled once and patched after every issued command;
	// nothing else mutates this channel's timing state.
	d.FillScan(cfg.Channel, &c.scan)
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// SpaceFor reports whether the class queue can admit one more transaction.
// The NoC uses it as the credit check before forwarding.
func (c *Controller) SpaceFor(class txn.Class) bool {
	return !c.queues[class].full()
}

// Occupancy reports the number of queued transactions in class.
func (c *Controller) Occupancy(class txn.Class) int {
	return len(c.queues[class].entries)
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
	wasEmpty := c.npending == 0
	e := entry{t: t, loc: loc}
	c.queues[t.Class].push(e)
	c.npending++
	c.bucketPush(e)
	c.stats.Enqueued++
	if c.refreshOn {
		c.rankPending[loc.Rank]++
	}
	// A new transaction invalidates the dormancy window: it may be
	// issuable immediately, and it changes the row-hit picture. The
	// kernel wake is re-armed alongside (the upstream router ticks
	// before this controller, so the entry is schedulable this cycle) —
	// but only when the controller was parked in the future, or was
	// empty (an empty controller's hint ignores nextTry entirely, so its
	// kernel bound may be parked at never regardless of nextTry); a
	// nonempty controller already due now has a bound at or below now.
	if wasEmpty || c.nextTry > now {
		c.wake.Rearm(now)
	}
	c.nextTry = 0
}

// BindWake implements sim.WakeBinder: the kernel hands the controller its
// wake handle at registration, for the Enqueue re-arm.
func (c *Controller) BindWake(h sim.WakeHandle) { c.wake = h }

// Pending reports the total number of queued transactions.
func (c *Controller) Pending() int { return c.npending }

// rrDist measures how far class is from the round-robin pointer; the class
// whose turn is next has distance 0.
func (c *Controller) rrDist(class txn.Class) int {
	return (int(class) - int(c.rrPtr) + txn.NumClasses) % txn.NumClasses
}

// NextActivity implements sim.Idler: an empty controller never wakes the
// kernel, and a controller whose queued transactions are all blocked on
// DRAM timing wakes exactly when the first timing gate opens. With
// refresh modeled the controller additionally wakes for the refresh state
// machine — REF issue, forced-drain precharges and tREFI boundary
// crossings — so a skipped stretch can never slide past a due refresh or
// mis-time a tRFC blackout.
//
//sara:hotpath
func (c *Controller) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	var queueAt sim.Cycle
	queueOK := false
	if c.npending > 0 && c.nextTry != neverTry {
		// nextTry == neverTry: every queued transaction is blocked on a
		// queue-shape change (e.g. the open-page guard); only an Enqueue
		// can unblock it.
		queueAt = c.nextTry
		if queueAt < now {
			queueAt = now
		}
		queueOK = true
	}
	if !c.refreshOn {
		if !queueOK {
			return 0, false
		}
		return queueAt, true
	}
	refAt := c.refNextAction
	if refAt < now {
		refAt = now
	}
	if !queueOK || refAt < queueAt {
		return refAt, true
	}
	return queueAt, true
}

// Tick issues at most one DRAM command for this channel.
//
//sara:hotpath
func (c *Controller) Tick(now sim.Cycle) {
	if c.refreshOn && (now >= c.refNextAction || c.wake.Reference()) {
		if c.tickRefresh(now) {
			return // the refresh machine consumed this cycle's command slot
		}
	}
	if now < c.nextTry && !c.wake.Reference() {
		return
	}
	c.collectCandidates(now)
	if len(c.scratch) == 0 {
		return // collectCandidates computed the dormancy window
	}
	c.nextTry = now + 1
	best := c.scratch[0]
	for _, cand := range c.scratch[1:] {
		if c.agedPass {
			if olderFirst(cand, best) {
				best = cand
			}
		} else if c.cfg.Policy.better(cand, best, c.rrDist, c.cfg.Delta) { //sara:alloc-ok method value does not escape; stack-allocated (0 allocs/op bench gate)
			best = cand
		}
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
		c.scan.RefBlocked[r] = c.dram.RefreshForced(ch, r, now)
	}
	c.refNextAction = c.nextRefreshAction(now)
	return false
}

// drainBank picks the lowest-indexed open bank of rank r that is past its
// precharge gate, for the forced-refresh drain.
func (c *Controller) drainBank(r int, now sim.Cycle) (int, bool) {
	for b := 0; b < c.nBanks; b++ {
		bs := &c.scan.Banks[r*c.nBanks+b]
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
		bs := &c.scan.Banks[r*c.nBanks+b]
		if bs.Open && bs.NextPre < at {
			at = bs.NextPre
		}
	}
	return at
}

// issueRefresh performs a REF to rank r and wakes both schedulers next
// cycle: the REF moved every activate gate of the rank and may have
// cleared the forced mask over queued work.
func (c *Controller) issueRefresh(r int, now sim.Cycle, forced bool) {
	if c.trace != nil {
		c.trace(c.cfg.Channel, now, 0, 'R')
	}
	c.dram.Refresh(c.cfg.Channel, r, now)
	c.dram.RefreshScanRank(c.cfg.Channel, r, &c.scan)
	c.scan.RefBlocked[r] = false
	c.dirtyRank(r)
	c.stats.Refreshes++
	if forced {
		c.stats.ForcedRefreshes++
	}
	c.refNextAction = now + 1
	if c.nextTry > now+1 {
		c.nextTry = now + 1
	}
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
	c.dram.RefreshScanBank(c.cfg.Channel, loc, &c.scan)
	c.bankChanged(c.bankKey(loc))
	c.stats.RefreshPrecharges++
	c.refNextAction = now + 1
	if c.nextTry > now+1 {
		c.nextTry = now + 1
	}
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

// collectCandidates fills c.scratch with every queued transaction that can
// issue a DRAM command at cycle now, honoring bank reservations. When any
// transaction is over the aging limit, only over-age transactions are
// candidates (the "clear the backlog" rule of Section 3.3).
//
// When the scan comes up empty, the same pass has already gathered the
// next cycle anything could change — the minimum over per-bank cached
// bounds (or per-entry timing gates on a full rescan) and upcoming
// aging-threshold crossings — and parks the controller there via nextTry.
// The bounds are sound lower bounds: nothing outside this controller
// mutates its channel's DRAM state, and Enqueue resets the window.
//
// The common case walks the per-bank buckets (collectBuckets), probing
// only banks whose readiness could have changed since the last event.
// Aged cycles — and every cycle in the kernel's reference mode — take the
// full legacy rescan (collectFull), which re-derives everything from
// scratch.
func (c *Controller) collectCandidates(now sim.Cycle) {
	// Queues are FIFO and Enqueue stamps are monotone, so each class head
	// is its queue's oldest entry: five compares decide whether any aging
	// work exists at all.
	hasAged := false
	if c.cfg.AgingT > 0 {
		for qi := range c.queues {
			if es := c.queues[qi].entries; len(es) > 0 && now >= es[0].t.Enqueue+c.cfg.AgingT {
				hasAged = true
				break
			}
		}
	}
	if hasAged || c.wake.Reference() {
		c.collectFull(now, hasAged)
		return
	}
	c.collectBuckets(now)
}

// collectBuckets is the incremental scan: clean buckets parked in the
// future contribute their cached bound without any per-entry work; dirty
// or due buckets are re-probed and their bound refreshed. It is only
// valid while no queued transaction is over the aging limit (the caller
// checks), because aging changes the candidate rule globally.
func (c *Controller) collectBuckets(now sim.Cycle) {
	c.scratch = c.scratch[:0]
	c.agedPass = false
	tryAt := neverTry
	for k := range c.buckets {
		b := &c.buckets[k]
		if len(b.entries) == 0 {
			continue
		}
		if !b.dirty && b.readyAt > now {
			if b.readyAt < tryAt {
				tryAt = b.readyAt
			}
			continue
		}
		b.dirty = false
		at := neverTry
		for i := range b.entries {
			e := &b.entries[i]
			ok, rowHit, eAt, eOK := c.probeScan(e, c.allowPrecharge(e), now)
			if ok {
				c.scratch = append(c.scratch, candidate{e: *e, rowHit: rowHit}) //sara:alloc-ok scratch is reused across scans; capacity amortizes to queue depth
			}
			if eOK && eAt < at {
				at = eAt
			}
		}
		b.readyAt = at
		if at < tryAt {
			tryAt = at
		}
	}
	if len(c.scratch) == 0 {
		c.parkEmptyScan(now, tryAt)
	}
}

// collectFull is the legacy full rescan: every queued entry of every
// class is probed and the row-hit table recomputed. It serves the aged
// pass (where candidacy is a function of age, not banks) and the forced
// per-cycle reference mode. Bucket caches are left untouched — they stay
// sound lower bounds because issued commands dirty their banks.
func (c *Controller) collectFull(now sim.Cycle, hasAged bool) {
	c.scratch = c.scratch[:0]
	c.agedPass = false
	c.refreshBankHits()
	if hasAged {
		for qi := range c.queues {
			entries := c.queues[qi].entries
			for i := range entries {
				e := &entries[i]
				if now < e.t.Enqueue+c.cfg.AgingT {
					continue
				}
				if ok, rowHit, _, _ := c.probeScan(e, true, now); ok {
					c.scratch = append(c.scratch, candidate{e: *e, rowHit: rowHit}) //sara:alloc-ok scratch is reused across scans; capacity amortizes to queue depth
				}
			}
		}
		if len(c.scratch) > 0 {
			c.agedPass = true
			return
		}
	}
	tryAt := neverTry
	for qi := range c.queues {
		entries := c.queues[qi].entries
		for i := range entries {
			e := &entries[i]
			ok, rowHit, at, atOK := c.probeScan(e, c.allowPrecharge(e), now)
			if ok {
				c.scratch = append(c.scratch, candidate{e: *e, rowHit: rowHit}) //sara:alloc-ok scratch is reused across scans; capacity amortizes to queue depth
				continue
			}
			if hasAged && !atOK && now >= e.t.Enqueue+c.cfg.AgingT {
				// Already aged but policy-blocked: the aged pass
				// bypasses the open-page guard, so probe with it.
				_, _, at, atOK = c.probeScan(e, true, now)
			}
			if atOK && at < tryAt {
				tryAt = at
			}
		}
	}
	if len(c.scratch) == 0 {
		c.parkEmptyScan(now, tryAt)
	}
}

// parkEmptyScan finalizes a scan that produced no candidates: the next
// aging-threshold crossing changes both the candidate set and the
// open-page bypass, so it bounds the dormancy window alongside tryAt,
// the timing-gate minimum the scan gathered. Entries are sorted by
// Enqueue, so the first not-yet-aged entry of each class carries the
// class minimum — the head itself whenever nothing is aged (the bucket
// scan's case). Both scan flavors park through this one tail so their
// dormancy windows cannot drift apart.
func (c *Controller) parkEmptyScan(now, tryAt sim.Cycle) {
	if c.cfg.AgingT > 0 {
		for qi := range c.queues {
			entries := c.queues[qi].entries
			for i := range entries {
				if deadline := entries[i].t.Enqueue + c.cfg.AgingT; deadline > now {
					if deadline < tryAt {
						tryAt = deadline
					}
					break
				}
			}
		}
	}
	if tryAt <= now {
		// Defensive: the scan just failed at now, so nothing can
		// issue before the next cycle.
		tryAt = now + 1
	}
	c.nextTry = tryAt
}

// probeScan evaluates entry e against the current scan snapshot: whether
// its next command can issue at now, whether its CAS would hit the open
// row, and the earliest cycle the command clears the timing gates (atOK
// false when blocked on a foreign reservation or a disallowed precharge).
func (c *Controller) probeScan(e *entry, allowPre bool, now sim.Cycle) (ok, rowHit bool, at sim.Cycle, atOK bool) {
	if c.scan.RefBlocked[e.loc.Rank] {
		// The rank is being drained for a forced refresh: nothing issues
		// until the REF lands, and the refresh machine owns that wake.
		return false, false, 0, false
	}
	b := &c.scan.Banks[c.bankKey(e.loc)]
	if b.ReservedBy != 0 && b.ReservedBy != e.t.ID {
		return false, false, 0, false
	}
	switch {
	case b.Open && b.Row == e.loc.Row:
		if e.t.Kind == txn.Read {
			at = b.NextRead
			if c.scan.ChRead > at {
				at = c.scan.ChRead
			}
		} else {
			at = b.NextWrite
			if c.scan.ChWrite > at {
				at = c.scan.ChWrite
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
		if g := c.scan.RankAct[e.loc.Rank]; g > at {
			at = g
		}
		return now >= at, false, at, true
	}
}

// refreshBankHits recomputes the per-bank best queued row-hit priority.
// Only the row-aware policies consult it, so other policies skip the scan.
func (c *Controller) refreshBankHits() {
	if !c.rowAware {
		return
	}
	for k := range c.bankHit {
		c.bankHit[k] = 0
	}
	for qi := range c.queues {
		entries := c.queues[qi].entries
		for i := range entries {
			e := &entries[i]
			key := c.bankKey(e.loc)
			if p := entryHit(&c.scan.Banks[key], e); p > c.bankHit[key] {
				c.bankHit[key] = p
			}
		}
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

// issue performs e's next command at cycle now.
func (c *Controller) issue(best candidate, now sim.Cycle) {
	e := best.e
	state, row := c.dram.State(e.loc)
	if c.trace != nil {
		k := byte('C')
		if state == dram.BankOpen && row != e.loc.Row {
			k = 'P'
		} else if state != dram.BankOpen {
			k = 'A'
		}
		c.trace(c.cfg.Channel, now, e.t.ID, k)
	}
	switch {
	case state == dram.BankOpen && row == e.loc.Row:
		c.issueCAS(e, now)
	case state == dram.BankOpen:
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
	c.dram.RefreshScanBank(c.cfg.Channel, e.loc, &c.scan)
	c.bankChanged(c.bankKey(e.loc))
}

func (c *Controller) issueCAS(e entry, now sim.Cycle) {
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
	q.remove(e.t.ID)
	c.npending--
	c.bucketRemove(c.bankKey(e.loc), e.t.ID)
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
