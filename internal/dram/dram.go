package dram

import (
	"fmt"

	"sara/internal/sim"
)

// Bank is one bank's row-buffer state and timing gates. The device owns
// it; a controller reads it in place through its channel's Gates.
type Bank struct {
	Open bool
	Row  uint64
	// ReservedBy is the ID of the transaction currently walking this bank
	// through PRE/ACT on its behalf, or 0 when free. The memory controller
	// maintains it (Reserve/Release) to prevent precharge/activate thrash
	// between competing transactions; the bank is its natural owner.
	ReservedBy uint64

	// Bank-level gates: the earliest ACT, READ CAS, WRITE CAS and PRE.
	// ACT combines with Gates.RankAct, the CAS gates with Gates.ChRead and
	// Gates.ChWrite.
	NextAct   sim.Cycle
	NextRead  sim.Cycle
	NextWrite sim.Cycle
	NextPre   sim.Cycle
}

// Gates is one channel's timing state, in the form the controller's queue
// scan evaluates: a command is legal at now exactly when now has reached
// every gate that applies to it. Activate, Precharge, Read, Write and
// Refresh keep it current; nothing else writes it but the controller's
// Reserve/Release.
//
// Timing-gate monotonicity is a contract, not an accident: every gate
// (bank CAS/PRE/ACT, rank tRRD/tFAW, channel CAS spacing with bus
// occupancy folded in) only ever moves LATER as commands issue. Bank gates
// fold new constraints with maxCycle; RankAct is re-derived at an ACT that
// was legal, so at or after its old value; ChRead/ChWrite are re-derived at
// a CAS that was legal, so the old gates are at or before now. The
// controller's per-bank candidate buckets (memctrl/bucket.go) depend on
// this to keep cached earliest-issuable bounds sound between scans: a gate
// that could move earlier without a command issuing on that bank would
// silently break skip-vs-step equivalence. The non-monotone inputs — row
// and reservation state — change only at a command on that bank, which the
// controller issued and so knows to invalidate.
type Gates struct {
	// ChRead/ChWrite are the channel's earliest READ/WRITE CAS: the
	// turnaround and CAS-to-CAS gate, folded with the data-bus occupancy
	// (the burst starts CL/CWL after the CAS and must not start before the
	// previous burst has left the bus).
	ChRead  sim.Cycle
	ChWrite sim.Cycle
	// RankAct[r] is rank r's ACT gate: max(last ACT + tRRD, fourth-last
	// ACT + tFAW).
	RankAct []sim.Cycle
	// Banks is indexed by rank*Banks+bank (the controller's bankKey).
	Banks []Bank
}

// rank holds the per-rank state behind the gates: the tFAW activate window
// and the refresh bookkeeping.
type rank struct {
	// actHistory holds the cycles of the most recent activates for the
	// tFAW four-activate window (ring buffer of size 4). actCount tracks
	// how many activates have happened so a slot holding cycle 0 is not
	// mistaken for an empty one.
	actHistory [4]sim.Cycle
	actIdx     int
	actCount   uint64

	// All-bank refresh bookkeeping. refBoundary is the next tREFI slot
	// not yet accounted for; refOwed counts refreshes due (negative when
	// pulled in ahead of schedule); refBlackoutEnd is the end of the
	// current tRFC blackout.
	refBoundary    sim.Cycle
	refOwed        int
	refBlackoutEnd sim.Cycle
}

// DRAM is the device model. It is driven by the memory controller(s); it
// has no per-cycle work of its own. Each channel's bank, rank and bus
// timing lives in one Gates value, which the channel's controller probes
// on every queue scan.
type DRAM struct {
	cfg    Config
	mapper *AddressMapper
	gates  []Gates        // per channel
	ranks  []rank         // flat [channel][rank]
	counts []ChannelStats // per channel
	nRanks int
	nBanks int
}

// New builds a DRAM from cfg. It panics on invalid configuration, because
// configurations are produced by code (not user input) in this library.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := cfg.Geometry
	d := &DRAM{
		cfg:    cfg,
		mapper: NewAddressMapper(g, cfg.Timing),
		gates:  make([]Gates, g.Channels),
		ranks:  make([]rank, g.Channels*g.Ranks),
		counts: make([]ChannelStats, g.Channels),
		nRanks: g.Ranks,
		nBanks: g.Banks,
	}
	for ch := range d.gates {
		d.gates[ch] = Gates{RankAct: make([]sim.Cycle, g.Ranks), Banks: make([]Bank, g.Ranks*g.Banks)}
	}
	if cfg.Refresh.Enabled {
		// Stagger each rank's tREFI phase across the whole device so the
		// per-rank blackouts spread over the interval instead of every
		// rank hitting its postponement wall at the same boundary — an
		// aligned cadence turns forced refresh into a periodic all-rank
		// drain storm that freezes the entire memory system at once.
		n := sim.Cycle(len(d.ranks))
		for i := range d.ranks {
			d.ranks[i].refBoundary = cfg.Refresh.TREFI + sim.Cycle(i)*cfg.Refresh.TREFI/n
		}
	}
	return d
}

// Config returns the configuration the device was built with.
func (d *DRAM) Config() Config { return d.cfg }

// Mapper returns the address mapper shared with the controllers and NoC.
func (d *DRAM) Mapper() *AddressMapper { return d.mapper }

// Gates returns channel ch's timing state. The pointer stays valid for
// the device's lifetime and always reflects every command issued so far.
func (d *DRAM) Gates(ch int) *Gates { return &d.gates[ch] }

func (d *DRAM) bank(loc Location) *Bank {
	return &d.gates[loc.Channel].Banks[loc.Rank*d.nBanks+loc.Bank]
}

func (d *DRAM) rank(ch, r int) *rank { return &d.ranks[ch*d.nRanks+r] }

// Reserve marks the bank at loc as owned by transaction id. It panics if
// the bank is already reserved by a different transaction, which would
// indicate a scheduler bug.
//
//sara:hotpath
func (d *DRAM) Reserve(loc Location, id uint64) {
	b := d.bank(loc)
	if b.ReservedBy != 0 && b.ReservedBy != id {
		panic(fmt.Sprintf("dram: bank %v already reserved by txn %d, wanted %d", loc, b.ReservedBy, id))
	}
	b.ReservedBy = id
}

// Release frees the reservation on the bank at loc if held by id.
//
//sara:hotpath
func (d *DRAM) Release(loc Location, id uint64) {
	b := d.bank(loc)
	if b.ReservedBy == id {
		b.ReservedBy = 0
	}
}

// --- Activate ---

// CanActivate reports whether an ACT to loc may issue at cycle now.
func (d *DRAM) CanActivate(loc Location, now sim.Cycle) bool {
	b := d.bank(loc)
	return !b.Open && now >= b.NextAct && now >= d.gates[loc.Channel].RankAct[loc.Rank]
}

// Activate opens row loc.Row in the bank at loc. The caller must have
// checked CanActivate.
//
//sara:hotpath
func (d *DRAM) Activate(loc Location, now sim.Cycle) {
	if !d.CanActivate(loc, now) {
		panic(fmt.Sprintf("dram: illegal ACT at %d to %+v", now, loc))
	}
	t := d.cfg.Timing
	b := d.bank(loc)
	b.Open = true
	b.Row = loc.Row
	b.NextRead = maxCycle(b.NextRead, now+t.TRCD)
	b.NextWrite = maxCycle(b.NextWrite, now+t.TRCD)
	b.NextPre = maxCycle(b.NextPre, now+t.TRAS)
	rk := d.rank(loc.Channel, loc.Rank)
	rk.actHistory[rk.actIdx] = now
	rk.actIdx = (rk.actIdx + 1) % len(rk.actHistory)
	rk.actCount++
	gate := now + t.TRRD
	if rk.actCount >= uint64(len(rk.actHistory)) {
		// tFAW: the fourth-most-recent activate must be at least tFAW ago.
		gate = maxCycle(gate, rk.actHistory[rk.actIdx]+t.TFAW)
	}
	d.gates[loc.Channel].RankAct[loc.Rank] = gate
	d.counts[loc.Channel].Activates++
}

// --- Precharge ---

// CanPrecharge reports whether a PRE to loc may issue at cycle now.
func (d *DRAM) CanPrecharge(loc Location, now sim.Cycle) bool {
	b := d.bank(loc)
	return b.Open && now >= b.NextPre
}

// Precharge closes the open row in the bank at loc.
//
//sara:hotpath
func (d *DRAM) Precharge(loc Location, now sim.Cycle) {
	if !d.CanPrecharge(loc, now) {
		panic(fmt.Sprintf("dram: illegal PRE at %d to %+v", now, loc))
	}
	b := d.bank(loc)
	b.Open = false
	b.NextAct = maxCycle(b.NextAct, now+d.cfg.Timing.TRP)
	d.counts[loc.Channel].Precharges++
}

// --- Read ---

// CanRead reports whether a READ CAS to loc may issue at now. The open row
// must match loc.Row.
func (d *DRAM) CanRead(loc Location, now sim.Cycle) bool {
	b := d.bank(loc)
	return b.Open && b.Row == loc.Row && now >= b.NextRead && now >= d.gates[loc.Channel].ChRead
}

// Read issues a READ CAS and returns the cycle at which the last data beat
// arrives (i.e. when the transaction's data is fully available).
//
//sara:hotpath
func (d *DRAM) Read(loc Location, now sim.Cycle) sim.Cycle {
	if !d.CanRead(loc, now) {
		panic(fmt.Sprintf("dram: illegal READ at %d to %+v", now, loc))
	}
	t := d.cfg.Timing
	b := d.bank(loc)
	g := &d.gates[loc.Channel]
	dataEnd := now + t.CL + t.BurstCycles()
	// The next read waits out same-channel CAS-to-CAS spacing and this
	// burst's bus occupancy; the old gate was at or before now.
	g.ChRead = maxCycle(now+t.TCCD, dataEnd-t.CL)
	// Read-to-write turnaround: the write burst may not start before the
	// read burst has left the bus (plus one dead cycle).
	g.ChWrite = maxCycle(g.ChWrite, dataEnd+1-t.CWL)
	b.NextRead = maxCycle(b.NextRead, now+t.TCCD)
	// Precharge must respect tRTP from the read command.
	b.NextPre = maxCycle(b.NextPre, now+t.TRTP)

	c := &d.counts[loc.Channel]
	c.ReadBursts++
	c.BytesMoved += uint64(d.cfg.Geometry.BurstBytes(t))
	return dataEnd
}

// --- Write ---

// CanWrite reports whether a WRITE CAS to loc may issue at now.
func (d *DRAM) CanWrite(loc Location, now sim.Cycle) bool {
	b := d.bank(loc)
	return b.Open && b.Row == loc.Row && now >= b.NextWrite && now >= d.gates[loc.Channel].ChWrite
}

// Write issues a WRITE CAS and returns the cycle at which the write data
// has been fully transferred (the controller acknowledges the transaction
// then).
//
//sara:hotpath
func (d *DRAM) Write(loc Location, now sim.Cycle) sim.Cycle {
	if !d.CanWrite(loc, now) {
		panic(fmt.Sprintf("dram: illegal WRITE at %d to %+v", now, loc))
	}
	t := d.cfg.Timing
	b := d.bank(loc)
	g := &d.gates[loc.Channel]
	dataEnd := now + t.CWL + t.BurstCycles()
	// The next write waits out CAS-to-CAS spacing and this burst's bus
	// occupancy; the old gate was at or before now.
	g.ChWrite = maxCycle(now+t.TCCD, dataEnd-t.CWL)
	// Write-to-read turnaround (tWTR counted from end of write data).
	g.ChRead = maxCycle(g.ChRead, dataEnd+t.TWTR)
	b.NextWrite = maxCycle(b.NextWrite, now+t.TCCD)
	// Write recovery before precharge (tWR from end of write data).
	b.NextPre = maxCycle(b.NextPre, dataEnd+t.TWR)

	c := &d.counts[loc.Channel]
	c.WriteBursts++
	c.BytesMoved += uint64(d.cfg.Geometry.BurstBytes(t))
	return dataEnd
}

// --- Refresh ---
//
// Refresh is modeled as per-rank all-bank REF (LPDDR4 REFab): every tREFI
// cycles a rank owes one refresh, the owed count may swing within the
// JEDEC postponement/pull-in window, and an issued REF blacks the rank out
// for tRFC. The blackout needs no gating beyond the activate timestamps:
// REF requires every bank closed, and a closed bank admits no command
// until its activate gate — which REF pushes past the blackout — opens.

// RefreshEnabled reports whether the device models refresh.
func (d *DRAM) RefreshEnabled() bool { return d.cfg.Refresh.Enabled }

// syncRefresh advances rank bookkeeping to now: every elapsed tREFI slot
// adds one owed refresh. It is idempotent for a fixed now, so the state is
// a pure function of simulated time regardless of how often callers query
// it — the property the skip-vs-step equivalence relies on.
func (d *DRAM) syncRefresh(rk *rank, now sim.Cycle) {
	for rk.refBoundary <= now {
		rk.refOwed++
		rk.refBoundary += d.cfg.Refresh.TREFI
	}
}

// RefreshOwed reports how many refreshes rank r of channel ch owes at
// cycle now (negative when refreshes have been pulled in ahead of
// schedule), or zero on a refresh-free device.
//
//sara:hotpath
func (d *DRAM) RefreshOwed(ch, r int, now sim.Cycle) int {
	if !d.cfg.Refresh.Enabled {
		return 0 // syncRefresh would spin on a zero tREFI
	}
	rk := d.rank(ch, r)
	d.syncRefresh(rk, now)
	return rk.refOwed
}

// RefreshForced reports whether rank r's postponement window is exhausted
// at now: the controller must drain the rank and issue REF before serving
// it further.
//
//sara:hotpath
func (d *DRAM) RefreshForced(ch, r int, now sim.Cycle) bool {
	if !d.cfg.Refresh.Enabled {
		return false
	}
	return d.RefreshOwed(ch, r, now) >= d.cfg.Refresh.Window
}

// NextRefreshBoundary reports the first tREFI slot strictly after now, or
// zero on a refresh-free device.
//
//sara:hotpath
func (d *DRAM) NextRefreshBoundary(ch, r int, now sim.Cycle) sim.Cycle {
	if !d.cfg.Refresh.Enabled {
		return 0 // syncRefresh would spin on a zero tREFI
	}
	rk := d.rank(ch, r)
	d.syncRefresh(rk, now)
	return rk.refBoundary
}

// rankBanks returns rank r's banks within channel ch's gates.
func (d *DRAM) rankBanks(ch, r int) []Bank {
	return d.gates[ch].Banks[r*d.nBanks : (r+1)*d.nBanks]
}

// RefreshReadyAt reports when a REF to rank r could issue absent further
// commands: allClosed is false while some bank still holds an open row (a
// precharge must come first); otherwise at is the earliest cycle every
// bank's activate gate — which folds tRP after PRE and tRFC after REF —
// has opened.
//
//sara:hotpath
func (d *DRAM) RefreshReadyAt(ch, r int) (at sim.Cycle, allClosed bool) {
	banks := d.rankBanks(ch, r)
	for b := range banks {
		bk := &banks[b]
		if bk.Open {
			return 0, false
		}
		if bk.NextAct > at {
			at = bk.NextAct
		}
	}
	return at, true
}

// CanRefresh reports whether a REF to rank r of channel ch may issue at
// now: refresh enabled, every bank closed and past its activate gate, and
// pull-in capacity left in the window.
//
//sara:hotpath
func (d *DRAM) CanRefresh(ch, r int, now sim.Cycle) bool {
	if !d.cfg.Refresh.Enabled {
		return false
	}
	rk := d.rank(ch, r)
	d.syncRefresh(rk, now)
	if rk.refOwed <= -d.cfg.Refresh.Window {
		return false
	}
	at, closed := d.RefreshReadyAt(ch, r)
	return closed && now >= at
}

// Refresh issues an all-bank REF to rank r of channel ch. The caller must
// have checked CanRefresh. Every bank's activate gate moves past the tRFC
// blackout; no command can reach a closed bank before that gate opens.
//
//sara:hotpath
func (d *DRAM) Refresh(ch, r int, now sim.Cycle) {
	if !d.CanRefresh(ch, r, now) {
		panic(fmt.Sprintf("dram: illegal REF at %d to channel %d rank %d", now, ch, r))
	}
	end := now + d.cfg.Refresh.TRFC
	banks := d.rankBanks(ch, r)
	for b := range banks {
		banks[b].NextAct = maxCycle(banks[b].NextAct, end)
	}
	rk := d.rank(ch, r)
	rk.refOwed--
	rk.refBlackoutEnd = end
	d.counts[ch].Refreshes++
}

// BlackoutEnd reports the end of rank r's most recent tRFC blackout (zero
// before the first REF). Cycles in [end-tRFC, end) admit no command to
// the rank; the refresh property tests audit command streams against it.
func (d *DRAM) BlackoutEnd(ch, r int) sim.Cycle {
	return d.rank(ch, r).refBlackoutEnd
}

func maxCycle(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}
