package dram

import (
	"testing"
	"testing/quick"

	"sara/internal/sim"
	"sara/internal/txn"
)

func testConfig() Config { return PaperConfig(1866) }

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := testConfig()
	bad.Timing.BL = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("odd burst length accepted")
	}
	bad = testConfig()
	bad.Geometry.Channels = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two channels accepted")
	}
	bad = testConfig()
	bad.DataRateMTps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero data rate accepted")
	}
	bad = testConfig()
	bad.Timing.TRAS = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("tRAS below tRCD accepted")
	}
}

func TestPaperTimingMatchesTable1(t *testing.T) {
	tm := PaperTiming()
	if tm.CL != 36 || tm.TRCD != 34 || tm.TRP != 34 {
		t.Fatalf("CL-tRCD-tRP = %d-%d-%d, want 36-34-34", tm.CL, tm.TRCD, tm.TRP)
	}
	if tm.TWTR != 19 || tm.TRTP != 14 || tm.TWR != 34 {
		t.Fatalf("tWTR-tRTP-tWR = %d-%d-%d, want 19-14-34", tm.TWTR, tm.TRTP, tm.TWR)
	}
	if tm.TRRD != 19 || tm.TFAW != 75 {
		t.Fatalf("tRRD-tFAW = %d-%d, want 19-75", tm.TRRD, tm.TFAW)
	}
	g := PaperGeometry()
	if g.Channels != 2 || g.Ranks != 2 || g.Banks != 8 {
		t.Fatalf("channels-ranks-banks = %d-%d-%d, want 2-2-8", g.Channels, g.Ranks, g.Banks)
	}
}

func TestClockAndRates(t *testing.T) {
	cfg := testConfig()
	if hz := cfg.ClockHz(); hz != 933e6 {
		t.Fatalf("clock %v Hz, want 933e6", hz)
	}
	// 933 MB/s is exactly one byte per command-clock cycle.
	if bpc := cfg.BytesPerCycle(933e6); bpc != 1.0 {
		t.Fatalf("BytesPerCycle(933e6) = %v, want 1", bpc)
	}
	if c := cfg.CyclesFromSeconds(1e-6); c != 933 {
		t.Fatalf("1us = %d cycles, want 933", c)
	}
	peak := cfg.PeakBandwidthGBps()
	if peak < 29.8 || peak > 29.9 {
		t.Fatalf("peak bandwidth %.2f GB/s, want ~29.86", peak)
	}
}

func TestAddressMapperRoundTrip(t *testing.T) {
	cfg := testConfig()
	m := NewAddressMapper(cfg.Geometry, cfg.Timing)
	f := func(raw uint64) bool {
		// Restrict to 2 GB (Table 1 volume) and burst alignment.
		addr := txn.Addr(raw % (2 << 30) &^ uint64(m.BurstBytes()-1))
		loc := m.Decode(addr)
		return m.Encode(loc) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressMapperChannelInterleave(t *testing.T) {
	cfg := testConfig()
	m := NewAddressMapper(cfg.Geometry, cfg.Timing)
	bb := txn.Addr(m.BurstBytes())
	// Consecutive bursts alternate channels.
	if m.Channel(0) == m.Channel(bb) {
		t.Fatal("consecutive bursts mapped to same channel")
	}
	if m.Channel(0) != m.Channel(2*bb) {
		t.Fatal("stride-2 bursts should return to the same channel")
	}
}

func TestAddressMapperSequentialRowLocality(t *testing.T) {
	cfg := testConfig()
	m := NewAddressMapper(cfg.Geometry, cfg.Timing)
	// Walking one channel's bursts within a row should keep bank and row
	// fixed while the column advances.
	first := m.Decode(0)
	colsPerRow := cfg.Geometry.RowBytes / m.BurstBytes()
	for i := 1; i < colsPerRow; i++ {
		addr := txn.Addr(i * m.BurstBytes() * cfg.Geometry.Channels)
		loc := m.Decode(addr)
		if loc.Row != first.Row || loc.Bank != first.Bank || loc.Channel != first.Channel {
			t.Fatalf("burst %d left the row: %+v vs %+v", i, loc, first)
		}
		if loc.Col != uint64(i) {
			t.Fatalf("burst %d col = %d", i, loc.Col)
		}
	}
}

func TestBankStateMachine(t *testing.T) {
	d := New(testConfig())
	loc := Location{Channel: 0, Rank: 0, Bank: 0, Row: 5}
	tm := d.Config().Timing

	b := d.bank(loc)
	if b.Open {
		t.Fatal("bank should start closed")
	}
	if !d.CanActivate(loc, 0) {
		t.Fatal("fresh bank should accept ACT")
	}
	d.Activate(loc, 0)
	if !b.Open || b.Row != 5 {
		t.Fatalf("bank open=%v row %d after ACT", b.Open, b.Row)
	}
	if d.CanRead(loc, 0) {
		t.Fatal("READ must wait tRCD")
	}
	if !d.CanRead(loc, tm.TRCD) {
		t.Fatal("READ should be legal at tRCD")
	}
	done := d.Read(loc, tm.TRCD)
	if want := tm.TRCD + tm.CL + tm.BurstCycles(); done != want {
		t.Fatalf("read data end %d, want %d", done, want)
	}
	if !d.CanRead(loc, done) {
		t.Fatal("open matching row should accept a READ once the bus is free")
	}
	other := loc
	other.Row = 9
	if d.CanRead(other, done) {
		t.Fatal("different row must not accept a READ")
	}
}

func TestPrechargeRespectsTRASAndTRP(t *testing.T) {
	d := New(testConfig())
	tm := d.Config().Timing
	loc := Location{Row: 1}
	d.Activate(loc, 0)
	if d.CanPrecharge(loc, tm.TRCD) {
		t.Fatal("PRE before tRAS accepted")
	}
	if !d.CanPrecharge(loc, tm.TRAS) {
		t.Fatal("PRE at tRAS rejected")
	}
	d.Precharge(loc, tm.TRAS)
	if d.CanActivate(loc, tm.TRAS+1) {
		t.Fatal("ACT before tRP accepted")
	}
	if !d.CanActivate(loc, tm.TRAS+tm.TRP) {
		t.Fatal("ACT at tRP rejected")
	}
}

func TestTRRDBetweenBanks(t *testing.T) {
	d := New(testConfig())
	tm := d.Config().Timing
	a := Location{Bank: 0, Row: 1}
	b := Location{Bank: 1, Row: 1}
	d.Activate(a, 0)
	if d.CanActivate(b, tm.TRRD-1) {
		t.Fatal("ACT before tRRD accepted")
	}
	if !d.CanActivate(b, tm.TRRD) {
		t.Fatal("ACT at tRRD rejected")
	}
}

func TestTFAWFourActivateWindow(t *testing.T) {
	// With the paper's timing four tRRD spacings (76) already exceed tFAW
	// (75), so the window never binds; stretch it so it does.
	cfg := testConfig()
	cfg.Timing.TFAW = 5 * cfg.Timing.TRRD
	d := New(cfg)
	tm := d.Config().Timing
	now := sim.Cycle(0)
	for bank := 0; bank < 4; bank++ {
		loc := Location{Bank: bank, Row: 1}
		for !d.CanActivate(loc, now) {
			now++
		}
		d.Activate(loc, now)
	}
	fifth := Location{Bank: 4, Row: 1}
	// The fifth activate must wait until tFAW after the first, even once
	// tRRD from the fourth has long passed.
	if d.CanActivate(fifth, now+tm.TRRD) {
		t.Fatalf("fifth ACT allowed at %d, inside the tFAW window", now+tm.TRRD)
	}
	earliest := tm.TFAW
	if now+tm.TRRD > earliest {
		earliest = now + tm.TRRD
	}
	if !d.CanActivate(fifth, earliest) {
		t.Fatalf("fifth ACT rejected at %d (tFAW %d, last+tRRD %d)", earliest, tm.TFAW, now+tm.TRRD)
	}
	// A different rank has its own window.
	otherRank := Location{Rank: 1, Bank: 0, Row: 1}
	if !d.CanActivate(otherRank, now+tm.TRRD) {
		t.Fatal("other rank should not share the tFAW window")
	}
}

func TestDataBusSerializesBursts(t *testing.T) {
	d := New(testConfig())
	tm := d.Config().Timing
	a := Location{Bank: 0, Row: 1}
	b := Location{Bank: 1, Row: 1}
	d.Activate(a, 0)
	d.Activate(b, tm.TRRD)
	start := tm.TRRD + tm.TRCD
	d.Read(a, start)
	// A second CAS on the same channel must respect tCCD.
	if d.CanRead(b, start+1) {
		t.Fatal("second READ inside tCCD accepted")
	}
	if !d.CanRead(b, start+tm.TCCD) {
		t.Fatal("second READ at tCCD rejected")
	}
	// A different channel's bus is independent.
	c := Location{Channel: 1, Bank: 0, Row: 1}
	d.Activate(c, 0)
	if !d.CanRead(c, start+1) {
		t.Fatal("other channel should have a free bus")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	d := New(testConfig())
	tm := d.Config().Timing
	a := Location{Bank: 0, Row: 1}
	b := Location{Bank: 1, Row: 1}
	d.Activate(a, 0)
	d.Activate(b, tm.TRRD)
	start := tm.TRRD + tm.TRCD
	dataEnd := d.Write(a, start)
	if d.CanRead(b, dataEnd+tm.TWTR-1) {
		t.Fatal("READ inside tWTR accepted")
	}
	if !d.CanRead(b, dataEnd+tm.TWTR) {
		t.Fatal("READ at tWTR rejected")
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	d := New(testConfig())
	tm := d.Config().Timing
	loc := Location{Row: 3}
	d.Activate(loc, 0)
	dataEnd := d.Write(loc, tm.TRCD)
	if d.CanPrecharge(loc, dataEnd+tm.TWR-1) {
		t.Fatal("PRE inside tWR accepted")
	}
	if !d.CanPrecharge(loc, dataEnd+tm.TWR) {
		t.Fatal("PRE at tWR rejected")
	}
}

func TestIllegalCommandsPanic(t *testing.T) {
	for name, fn := range map[string]func(*DRAM){
		"read closed bank": func(d *DRAM) { d.Read(Location{Row: 1}, 0) },
		"precharge closed": func(d *DRAM) { d.Precharge(Location{}, 0) },
		"double activate":  func(d *DRAM) { d.Activate(Location{Row: 1}, 0); d.Activate(Location{Row: 2}, 1) },
		"write wrong row":  func(d *DRAM) { d.Activate(Location{Row: 1}, 0); d.Write(Location{Row: 2}, 100) },
		"read before tRCD": func(d *DRAM) { d.Activate(Location{Row: 1}, 0); d.Read(Location{Row: 1}, 1) },
	} {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn(New(testConfig()))
		})
	}
}

func TestReservation(t *testing.T) {
	d := New(testConfig())
	loc := Location{Row: 1}
	d.Reserve(loc, 42)
	if got := d.bank(loc).ReservedBy; got != 42 {
		t.Fatalf("reserved by %d, want 42", got)
	}
	d.Release(loc, 7) // wrong owner: no-op
	if got := d.bank(loc).ReservedBy; got != 42 {
		t.Fatal("release by non-owner cleared reservation")
	}
	d.Release(loc, 42)
	if got := d.bank(loc).ReservedBy; got != 0 {
		t.Fatal("release by owner did not clear reservation")
	}
}

func TestReserveConflictPanics(t *testing.T) {
	d := New(testConfig())
	loc := Location{Row: 1}
	d.Reserve(loc, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on conflicting reservation")
		}
	}()
	d.Reserve(loc, 2)
}

func TestStatsAndBandwidth(t *testing.T) {
	d := New(testConfig())
	tm := d.Config().Timing
	loc := Location{Row: 1}
	d.Activate(loc, 0)
	d.Read(loc, tm.TRCD)
	d.Read(loc, tm.TRCD+tm.TCCD)
	st := d.Stats().Totals()
	if st.ReadBursts != 2 || st.Activates != 1 {
		t.Fatalf("stats %+v, want 2 reads 1 activate", st)
	}
	wantBytes := uint64(2 * d.Config().Geometry.BurstBytes(tm))
	if st.BytesMoved != wantBytes {
		t.Fatalf("bytes %d, want %d", st.BytesMoved, wantBytes)
	}
	if hr := d.RowHitRate(); hr != 0.5 {
		t.Fatalf("row hit rate %.2f, want 0.5 (1 hit of 2 CAS)", hr)
	}
	if bw := d.AverageBandwidthGBps(933); bw <= 0 {
		t.Fatalf("bandwidth %v, want positive", bw)
	}
}

// refModel is a test-local reference for the device's timing, kept in the
// raw form the gates are derived from: per-bank next-command cycles, per
// rank the last activate and the four-deep activate ring, per channel the
// data-bus free cycle and the CAS turnaround gates. Its Can* formulas are
// written from the timing rules directly, so a maintained gate that drifts
// from them — a dropped term, an off-by-one, a missed bump — shows up as a
// mismatch.
type refModel struct {
	cfg   Config
	banks [][][]refBank // [channel][rank][bank]
	ranks [][]refRank   // [channel][rank]
	chans []refChan
}

type refBank struct {
	open                             bool
	row                              uint64
	nextAct, nextRd, nextWr, nextPre sim.Cycle
}

type refRank struct {
	hasAct   bool
	lastAct  sim.Cycle
	ring     [4]sim.Cycle
	idx      int
	count    int
	boundary sim.Cycle
	owed     int
}

type refChan struct{ dataFree, nextRd, nextWr sim.Cycle }

func newRefModel(cfg Config) *refModel {
	g := cfg.Geometry
	m := &refModel{cfg: cfg, chans: make([]refChan, g.Channels)}
	for ch := 0; ch < g.Channels; ch++ {
		var bs [][]refBank
		var rs []refRank
		for r := 0; r < g.Ranks; r++ {
			bs = append(bs, make([]refBank, g.Banks))
			rk := refRank{}
			if cfg.Refresh.Enabled {
				n := sim.Cycle(g.Channels * g.Ranks)
				rk.boundary = cfg.Refresh.TREFI + sim.Cycle(ch*g.Ranks+r)*cfg.Refresh.TREFI/n
			}
			rs = append(rs, rk)
		}
		m.banks = append(m.banks, bs)
		m.ranks = append(m.ranks, rs)
	}
	return m
}

func (m *refModel) bank(l Location) *refBank { return &m.banks[l.Channel][l.Rank][l.Bank] }

func (m *refModel) canAct(l Location, now sim.Cycle) bool {
	b, rk, t := m.bank(l), &m.ranks[l.Channel][l.Rank], m.cfg.Timing
	if b.open || now < b.nextAct {
		return false
	}
	if rk.hasAct && now < rk.lastAct+t.TRRD {
		return false
	}
	return rk.count < 4 || now >= rk.ring[rk.idx]+t.TFAW
}

func (m *refModel) canPre(l Location, now sim.Cycle) bool {
	b := m.bank(l)
	return b.open && now >= b.nextPre
}

func (m *refModel) canRead(l Location, now sim.Cycle) bool {
	b, c := m.bank(l), &m.chans[l.Channel]
	return b.open && b.row == l.Row && now >= b.nextRd && now >= c.nextRd && now+m.cfg.Timing.CL >= c.dataFree
}

func (m *refModel) canWrite(l Location, now sim.Cycle) bool {
	b, c := m.bank(l), &m.chans[l.Channel]
	return b.open && b.row == l.Row && now >= b.nextWr && now >= c.nextWr && now+m.cfg.Timing.CWL >= c.dataFree
}

func (m *refModel) canRefresh(ch, r int, now sim.Cycle) bool {
	rf := m.cfg.Refresh
	if !rf.Enabled {
		return false
	}
	rk := &m.ranks[ch][r]
	for rk.boundary <= now {
		rk.owed++
		rk.boundary += rf.TREFI
	}
	if rk.owed <= -rf.Window {
		return false
	}
	for _, b := range m.banks[ch][r] {
		if b.open || now < b.nextAct {
			return false
		}
	}
	return true
}

func (m *refModel) activate(l Location, now sim.Cycle) {
	b, rk, t := m.bank(l), &m.ranks[l.Channel][l.Rank], m.cfg.Timing
	b.open, b.row = true, l.Row
	b.nextRd = maxCycle(b.nextRd, now+t.TRCD)
	b.nextWr = maxCycle(b.nextWr, now+t.TRCD)
	b.nextPre = maxCycle(b.nextPre, now+t.TRAS)
	rk.hasAct, rk.lastAct = true, now
	rk.ring[rk.idx] = now
	rk.idx = (rk.idx + 1) % 4
	rk.count++
}

func (m *refModel) precharge(l Location, now sim.Cycle) {
	b := m.bank(l)
	b.open = false
	b.nextAct = maxCycle(b.nextAct, now+m.cfg.Timing.TRP)
}

func (m *refModel) read(l Location, now sim.Cycle) sim.Cycle {
	b, c, t := m.bank(l), &m.chans[l.Channel], m.cfg.Timing
	end := now + t.CL + t.BurstCycles()
	c.dataFree = end
	b.nextRd = maxCycle(b.nextRd, now+t.TCCD)
	c.nextRd = maxCycle(c.nextRd, now+t.TCCD)
	c.nextWr = maxCycle(c.nextWr, end+1-t.CWL)
	b.nextPre = maxCycle(b.nextPre, now+t.TRTP)
	return end
}

func (m *refModel) write(l Location, now sim.Cycle) sim.Cycle {
	b, c, t := m.bank(l), &m.chans[l.Channel], m.cfg.Timing
	end := now + t.CWL + t.BurstCycles()
	c.dataFree = end
	b.nextWr = maxCycle(b.nextWr, now+t.TCCD)
	c.nextWr = maxCycle(c.nextWr, now+t.TCCD)
	c.nextRd = maxCycle(c.nextRd, end+t.TWTR)
	b.nextPre = maxCycle(b.nextPre, end+t.TWR)
	return end
}

func (m *refModel) refresh(ch, r int, now sim.Cycle) {
	for i := range m.banks[ch][r] {
		b := &m.banks[ch][r][i]
		b.nextAct = maxCycle(b.nextAct, now+m.cfg.Refresh.TRFC)
	}
	m.ranks[ch][r].owed--
}

// checkGates asserts that every field of every channel's Gates equals the
// value the model's raw state implies.
func (m *refModel) checkGates(t *testing.T, d *DRAM, now sim.Cycle) {
	t.Helper()
	tm := m.cfg.Timing
	sub := func(a, b sim.Cycle) sim.Cycle {
		if a < b {
			return 0
		}
		return a - b
	}
	for ch := range m.chans {
		g, c := d.Gates(ch), &m.chans[ch]
		if want := maxCycle(c.nextRd, sub(c.dataFree, tm.CL)); g.ChRead != want {
			t.Fatalf("cycle %d: channel %d ChRead %d, model %d", now, ch, g.ChRead, want)
		}
		if want := maxCycle(c.nextWr, sub(c.dataFree, tm.CWL)); g.ChWrite != want {
			t.Fatalf("cycle %d: channel %d ChWrite %d, model %d", now, ch, g.ChWrite, want)
		}
		for r := range m.ranks[ch] {
			rk := &m.ranks[ch][r]
			var want sim.Cycle
			if rk.hasAct {
				want = rk.lastAct + tm.TRRD
			}
			if rk.count >= 4 {
				want = maxCycle(want, rk.ring[rk.idx]+tm.TFAW)
			}
			if g.RankAct[r] != want {
				t.Fatalf("cycle %d: channel %d rank %d RankAct %d, model %d", now, ch, r, g.RankAct[r], want)
			}
			for bk, mb := range m.banks[ch][r] {
				got := g.Banks[r*m.cfg.Geometry.Banks+bk]
				want := Bank{Open: mb.open, Row: mb.row, NextAct: mb.nextAct, NextRead: mb.nextRd, NextWrite: mb.nextWr, NextPre: mb.nextPre}
				if got != want {
					t.Fatalf("cycle %d: channel %d rank %d bank %d gates %+v, model %+v", now, ch, r, bk, got, want)
				}
			}
		}
	}
}

// TestRandomizedCommandLegality drives the device with a random-but-legal
// command stream and checks it against refModel at every step: each Can*
// answer and each Gates field must equal the model's, and no two bursts
// may overlap on a channel's bus. The wide-tFAW leg stretches tFAW past
// four tRRD spacings, so the four-activate window actually binds (with the
// paper's timing tRRD alone already spaces a fifth ACT past it); the
// refresh leg shrinks tREFI and interleaves REF with drain phases so
// refresh blackouts overlap the traffic.
func TestRandomizedCommandLegality(t *testing.T) {
	wideFAW := testConfig()
	wideFAW.Timing.TFAW = 5 * wideFAW.Timing.TRRD
	withRefresh := testConfig()
	withRefresh.Refresh = withRefresh.DefaultRefresh()
	withRefresh.Refresh.TREFI = 500
	withRefresh.Refresh.TRFC = 60
	for _, leg := range []struct {
		name string
		cfg  Config
	}{{"paper", testConfig()}, {"wide-tFAW", wideFAW}, {"refresh", withRefresh}} {
		t.Run(leg.name, func(t *testing.T) { checkCommandLegality(t, leg.cfg) })
	}
}

func checkCommandLegality(t *testing.T, cfg Config) {
	d := New(cfg)
	m := newRefModel(cfg)
	tm := cfg.Timing
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	var busFree [2]sim.Cycle
	for now := sim.Cycle(0); now < 20000; now++ {
		loc := Location{
			Channel: next(2),
			Rank:    next(2),
			Bank:    next(8),
			Row:     uint64(next(4)),
		}
		op := next(4)
		if cfg.Refresh.Enabled {
			// Pure random traffic keeps some bank of every rank open, and
			// REF needs the whole rank closed: alternate churn with
			// PRE/REF drain phases so refresh interleaves with traffic.
			op = next(5)
			if now%1000 >= 700 {
				op = 3 + next(2)
			}
		}
		if b := d.bank(loc); b.Open && op != 0 {
			loc.Row = b.Row
		}
		if got, want := d.CanActivate(loc, now), m.canAct(loc, now); got != want {
			t.Fatalf("cycle %d: CanActivate(%+v) = %v, model %v", now, loc, got, want)
		}
		if got, want := d.CanPrecharge(loc, now), m.canPre(loc, now); got != want {
			t.Fatalf("cycle %d: CanPrecharge(%+v) = %v, model %v", now, loc, got, want)
		}
		if got, want := d.CanRead(loc, now), m.canRead(loc, now); got != want {
			t.Fatalf("cycle %d: CanRead(%+v) = %v, model %v", now, loc, got, want)
		}
		if got, want := d.CanWrite(loc, now), m.canWrite(loc, now); got != want {
			t.Fatalf("cycle %d: CanWrite(%+v) = %v, model %v", now, loc, got, want)
		}
		if got, want := d.CanRefresh(loc.Channel, loc.Rank, now), m.canRefresh(loc.Channel, loc.Rank, now); got != want {
			t.Fatalf("cycle %d: CanRefresh(%d, %d) = %v, model %v", now, loc.Channel, loc.Rank, got, want)
		}
		switch op {
		case 0:
			if d.CanActivate(loc, now) {
				d.Activate(loc, now)
				m.activate(loc, now)
			}
		case 1:
			if d.CanRead(loc, now) {
				if now+tm.CL < busFree[loc.Channel] {
					t.Fatalf("read burst overlaps bus at %d", now)
				}
				busFree[loc.Channel] = d.Read(loc, now)
				if end := m.read(loc, now); end != busFree[loc.Channel] {
					t.Fatalf("cycle %d: read data end %d, model %d", now, busFree[loc.Channel], end)
				}
			}
		case 2:
			if d.CanWrite(loc, now) {
				if now+tm.CWL < busFree[loc.Channel] {
					t.Fatalf("write burst overlaps bus at %d", now)
				}
				busFree[loc.Channel] = d.Write(loc, now)
				if end := m.write(loc, now); end != busFree[loc.Channel] {
					t.Fatalf("cycle %d: write data end %d, model %d", now, busFree[loc.Channel], end)
				}
			}
		case 3:
			if d.CanPrecharge(loc, now) {
				d.Precharge(loc, now)
				m.precharge(loc, now)
			}
		case 4:
			if d.CanRefresh(loc.Channel, loc.Rank, now) {
				d.Refresh(loc.Channel, loc.Rank, now)
				m.refresh(loc.Channel, loc.Rank, now)
			}
		}
		m.checkGates(t, d, now)
	}
	st := d.Stats().Totals()
	if st.BytesMoved == 0 {
		t.Fatal("random driver moved no data")
	}
	if cfg.Refresh.Enabled && st.Refreshes == 0 {
		t.Fatal("random driver issued no REF")
	}
}
