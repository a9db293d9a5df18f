package dram

import (
	"testing"
	"testing/quick"

	"sara/internal/sim"
)

func refreshConfig() Config {
	cfg := PaperConfig(1866)
	cfg.Refresh = cfg.DefaultRefresh()
	return cfg
}

func TestRefreshConfigValidate(t *testing.T) {
	if err := refreshConfig().Validate(); err != nil {
		t.Fatalf("default refresh config invalid: %v", err)
	}
	bad := refreshConfig()
	bad.Refresh.TRFC = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero tRFC accepted")
	}
	bad = refreshConfig()
	bad.Refresh.TRFC = bad.Refresh.TREFI
	if err := bad.Validate(); err == nil {
		t.Fatal("tRFC >= tREFI accepted")
	}
	bad = refreshConfig()
	bad.Refresh.Window = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero postponement window accepted")
	}
	// The zero value stays valid: refresh disabled.
	off := PaperConfig(1866)
	if err := off.Validate(); err != nil {
		t.Fatalf("refresh-free config invalid: %v", err)
	}
	if New(off).RefreshEnabled() {
		t.Fatal("refresh enabled on a refresh-free config")
	}
}

func TestDefaultRefreshDerivation(t *testing.T) {
	cfg := PaperConfig(1866)
	r := cfg.DefaultRefresh()
	// 3.904 us and 280 ns at the 933 MHz command clock.
	if r.TREFI != 3642 {
		t.Fatalf("tREFI = %d cycles, want 3642", r.TREFI)
	}
	if r.TRFC != 261 {
		t.Fatalf("tRFC = %d cycles, want 261", r.TRFC)
	}
	if r.Window != 8 {
		t.Fatalf("window = %d, want 8 (JEDEC)", r.Window)
	}
}

// TestRefreshOwedAccrual pins the tREFI accounting: one refresh becomes
// owed per elapsed tREFI slot, independent of how often the state is
// queried (the property idle skipping relies on).
func TestRefreshOwedAccrual(t *testing.T) {
	d := New(refreshConfig())
	trefi := d.Config().Refresh.TREFI
	if got := d.RefreshOwed(0, 0, trefi-1); got != 0 {
		t.Fatalf("owed %d before first boundary, want 0", got)
	}
	if got := d.RefreshOwed(0, 0, trefi); got != 1 {
		t.Fatalf("owed %d at first boundary, want 1", got)
	}
	if got := d.NextRefreshBoundary(0, 0, trefi); got != 2*trefi {
		t.Fatalf("next boundary %d, want %d", got, 2*trefi)
	}
	// Jumping far ahead in one query accrues every missed slot at once.
	if got := New(refreshConfig()).RefreshOwed(0, 0, 5*trefi+1); got != 5 {
		t.Fatalf("owed %d after 5 slots, want 5", got)
	}
}

// TestRefreshStaggeredPhases pins the anti-alignment property: every rank
// of the device gets a distinct tREFI phase, spread evenly over the
// interval, so the per-rank blackouts can never all land on one cycle.
func TestRefreshStaggeredPhases(t *testing.T) {
	d := New(refreshConfig())
	g := d.Config().Geometry
	trefi := d.Config().Refresh.TREFI
	total := sim.Cycle(g.Channels * g.Ranks)
	seen := map[sim.Cycle]bool{}
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			idx := sim.Cycle(ch*g.Ranks + r)
			want := trefi + idx*trefi/total
			got := d.NextRefreshBoundary(ch, r, 0)
			if got != want {
				t.Fatalf("rank (%d,%d) first boundary %d, want %d", ch, r, got, want)
			}
			if seen[got] {
				t.Fatalf("rank (%d,%d) shares boundary %d with another rank", ch, r, got)
			}
			seen[got] = true
		}
	}
}

// TestRefreshGolden walks one rank through a hand-computed REF schedule:
// the REF is legal exactly when every bank is closed and past its
// activate gate, the tRFC blackout blocks activates until it ends, and
// back-to-back REFs space by tRFC.
func TestRefreshGolden(t *testing.T) {
	d := New(refreshConfig())
	ref := d.Config().Refresh
	tm := d.Config().Timing

	// Fresh device: all banks closed, REF legal immediately (pull-in).
	if !d.CanRefresh(0, 0, 0) {
		t.Fatal("fresh rank should accept REF")
	}
	d.Refresh(0, 0, 0)
	if got := d.BlackoutEnd(0, 0); got != ref.TRFC {
		t.Fatalf("blackout end %d, want %d", got, ref.TRFC)
	}
	// Blackout: no ACT, no second REF, until exactly tRFC.
	loc := Location{Row: 1}
	if d.CanActivate(loc, ref.TRFC-1) {
		t.Fatal("ACT inside the tRFC blackout accepted")
	}
	if d.CanRefresh(0, 0, ref.TRFC-1) {
		t.Fatal("REF inside the tRFC blackout accepted")
	}
	if !d.CanActivate(loc, ref.TRFC) {
		t.Fatal("ACT at blackout end rejected")
	}
	if !d.CanRefresh(0, 0, ref.TRFC) {
		t.Fatal("REF at blackout end rejected")
	}
	// The other rank is independent.
	if !d.CanRefresh(0, 1, 1) {
		t.Fatal("other rank should refresh during this rank's blackout")
	}

	// An open row blocks REF until precharged and past tRP.
	d.Activate(loc, ref.TRFC)
	if _, closed := d.RefreshReadyAt(0, 0); closed {
		t.Fatal("open bank reported as REF-ready")
	}
	if d.CanRefresh(0, 0, ref.TRFC+tm.TRAS+tm.TRP) {
		t.Fatal("REF accepted with an open row")
	}
	d.Precharge(loc, ref.TRFC+tm.TRAS)
	preDone := ref.TRFC + tm.TRAS + tm.TRP
	if d.CanRefresh(0, 0, preDone-1) {
		t.Fatal("REF inside tRP after PRE accepted")
	}
	at, closed := d.RefreshReadyAt(0, 0)
	if !closed || at != preDone {
		t.Fatalf("REF ready at %d (closed=%v), want %d", at, closed, preDone)
	}
	d.Refresh(0, 0, preDone)
	if got := d.Stats().Channels[0].Refreshes; got != 2 {
		t.Fatalf("channel 0 refreshes = %d, want 2", got)
	}
}

// TestRefreshPullInWindow pins the JEDEC pull-in bound: a rank may bank at
// most Window refreshes ahead of schedule.
func TestRefreshPullInWindow(t *testing.T) {
	d := New(refreshConfig())
	ref := d.Config().Refresh
	now := sim.Cycle(0)
	for i := 0; i < ref.Window; i++ {
		if !d.CanRefresh(0, 0, now) {
			t.Fatalf("pull-in REF %d rejected at %d", i, now)
		}
		d.Refresh(0, 0, now)
		now += ref.TRFC
	}
	if got := d.RefreshOwed(0, 0, now); got != -ref.Window {
		t.Fatalf("owed %d after full pull-in, want %d", got, -ref.Window)
	}
	if d.CanRefresh(0, 0, now) {
		t.Fatal("REF beyond the pull-in window accepted")
	}
	// The next boundary restores one credit.
	if !d.CanRefresh(0, 0, ref.TREFI) {
		t.Fatal("REF rejected after a boundary restored credit")
	}
}

func TestIllegalRefreshPanics(t *testing.T) {
	d := New(refreshConfig())
	d.Activate(Location{Row: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("REF with an open row did not panic")
		}
	}()
	d.Refresh(0, 0, 1000)
}

func TestRefreshDisabledDevice(t *testing.T) {
	d := New(PaperConfig(1866))
	if d.CanRefresh(0, 0, 1_000_000) {
		t.Fatal("refresh-free device accepted REF")
	}
	if d.RefreshForced(0, 0, 1<<40) {
		t.Fatal("refresh-free device reported forced refresh")
	}
	if got := d.RefreshDuty(1 << 40); got != 0 {
		t.Fatalf("refresh-free duty %v, want 0", got)
	}
}

// TestQuickNoCommandInBlackout is the blackout property: driving the
// device with a random-but-legal command stream — activates, CAS,
// precharges and refreshes — never lets any command reach a rank inside
// its tRFC blackout, and never exceeds the postponement accounting the
// device exposes.
func TestQuickNoCommandInBlackout(t *testing.T) {
	prop := func(seed uint64) bool {
		cfg := refreshConfig()
		// Shrink tREFI so thousands of cycles cover many boundaries.
		cfg.Refresh.TREFI = 500
		cfg.Refresh.TRFC = 60
		d := New(cfg)
		rng := seed | 1
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % n
		}
		var blackoutEnd [2][2]sim.Cycle
		for now := sim.Cycle(0); now < 30000; now++ {
			ch, rk := next(2), next(2)
			loc := Location{Channel: ch, Rank: rk, Bank: next(8), Row: uint64(next(4))}
			// Alternate churn and drain phases: pure random traffic keeps
			// some bank of every rank open almost forever, and a REF needs
			// the whole rank closed. The drain phase (PRE/REF only) lets
			// ranks quiesce so refresh actually interleaves with traffic.
			op := next(5)
			if now%1000 >= 700 {
				op = 3 + next(2)
			}
			switch op {
			case 0:
				if d.CanActivate(loc, now) {
					if now < blackoutEnd[ch][rk] {
						t.Errorf("seed %d: ACT at %d inside blackout ending %d", seed, now, blackoutEnd[ch][rk])
						return false
					}
					d.Activate(loc, now)
				}
			case 1:
				if b := d.bank(loc); b.Open {
					loc.Row = b.Row
					if d.CanRead(loc, now) {
						if now < blackoutEnd[ch][rk] {
							t.Errorf("seed %d: READ at %d inside blackout", seed, now)
							return false
						}
						d.Read(loc, now)
					}
				}
			case 2:
				if b := d.bank(loc); b.Open {
					loc.Row = b.Row
					if d.CanWrite(loc, now) {
						if now < blackoutEnd[ch][rk] {
							t.Errorf("seed %d: WRITE at %d inside blackout", seed, now)
							return false
						}
						d.Write(loc, now)
					}
				}
			case 3:
				if d.CanPrecharge(loc, now) {
					if now < blackoutEnd[ch][rk] {
						t.Errorf("seed %d: PRE at %d inside blackout", seed, now)
						return false
					}
					d.Precharge(loc, now)
				}
			case 4:
				if d.CanRefresh(ch, rk, now) {
					if now < blackoutEnd[ch][rk] {
						t.Errorf("seed %d: REF at %d inside blackout", seed, now)
						return false
					}
					d.Refresh(ch, rk, now)
					blackoutEnd[ch][rk] = now + cfg.Refresh.TRFC
					if got := d.BlackoutEnd(ch, rk); got != blackoutEnd[ch][rk] {
						t.Errorf("seed %d: BlackoutEnd %d, want %d", seed, got, blackoutEnd[ch][rk])
						return false
					}
				}
				// The pull-in bound must hold at every step.
				if owed := d.RefreshOwed(ch, rk, now); owed < -cfg.Refresh.Window {
					t.Errorf("seed %d: owed %d beyond pull-in window", seed, owed)
					return false
				}
			}
		}
		if d.Stats().Totals().Refreshes == 0 {
			t.Errorf("seed %d: random driver issued no REF", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
