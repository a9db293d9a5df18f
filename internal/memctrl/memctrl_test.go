package memctrl

import (
	"testing"

	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

func newTestController(policy PolicyKind) (*Controller, *dram.DRAM) {
	d := dram.New(dram.PaperConfig(1866))
	cfg := DefaultConfig(0)
	cfg.Policy = policy
	return New(cfg, d), d
}

// mkTxn builds a transaction targeting channel 0 with the given bank/row,
// by encoding through the mapper.
func mkTxn(d *dram.DRAM, id uint64, kind txn.Kind, class txn.Class, prio txn.Priority, bank int, row uint64) *txn.Transaction {
	addr := d.Mapper().Encode(dram.Location{Channel: 0, Bank: bank, Row: row})
	return &txn.Transaction{ID: id, Kind: kind, Addr: addr, Size: 128, Class: class, Priority: prio}
}

func TestQueueCapsTotal42(t *testing.T) {
	if got := DefaultQueueCaps().Total(); got != 42 {
		t.Fatalf("default queue capacity %d, want 42 (Table 1)", got)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestEnqueueAndSpace(t *testing.T) {
	c, d := newTestController(FCFS)
	cap := c.Config().QueueCaps[txn.ClassDSP]
	for i := 0; i < cap; i++ {
		if !c.SpaceFor(txn.ClassDSP) {
			t.Fatalf("queue full after %d of %d", i, cap)
		}
		c.Enqueue(mkTxn(d, uint64(i+1), txn.Read, txn.ClassDSP, 0, i%8, 1), 0)
	}
	if c.SpaceFor(txn.ClassDSP) {
		t.Fatal("queue should be full")
	}
	if c.Occupancy(txn.ClassDSP) != cap {
		t.Fatalf("occupancy %d, want %d", c.Occupancy(txn.ClassDSP), cap)
	}
	if c.SpaceFor(txn.ClassCPU) != true {
		t.Fatal("other class should still have space")
	}
}

func TestWrongChannelPanics(t *testing.T) {
	c, d := newTestController(FCFS)
	addr := d.Mapper().Encode(dram.Location{Channel: 1, Row: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-channel enqueue")
		}
	}()
	c.Enqueue(&txn.Transaction{ID: 1, Addr: addr, Class: txn.ClassCPU}, 0)
}

// drive runs the controller until n transactions complete or the budget
// expires, returning completion order.
func drive(c *Controller, budget sim.Cycle, n int) []uint64 {
	var done []uint64
	c.OnComplete = func(tr *txn.Transaction, at sim.Cycle) { done = append(done, tr.ID) }
	for now := sim.Cycle(0); now < budget && len(done) < n; now++ {
		c.Tick(now)
	}
	return done
}

func TestFCFSServesInArrivalOrder(t *testing.T) {
	c, d := newTestController(FCFS)
	// Same bank, different rows: strict order forces conflicts.
	c.Enqueue(mkTxn(d, 1, txn.Read, txn.ClassCPU, 0, 0, 1), 0)
	c.Enqueue(mkTxn(d, 2, txn.Read, txn.ClassGPU, 7, 0, 2), 1)
	c.Enqueue(mkTxn(d, 3, txn.Read, txn.ClassDSP, 7, 0, 3), 2)
	done := drive(c, 2000, 3)
	if len(done) != 3 || done[0] != 1 || done[1] != 2 || done[2] != 3 {
		t.Fatalf("FCFS completion order %v, want [1 2 3]", done)
	}
}

func TestQoSServesHighPriorityFirst(t *testing.T) {
	c, d := newTestController(QoS)
	c.Enqueue(mkTxn(d, 1, txn.Read, txn.ClassCPU, 0, 0, 1), 0)
	c.Enqueue(mkTxn(d, 2, txn.Read, txn.ClassGPU, 7, 1, 2), 1)
	c.Enqueue(mkTxn(d, 3, txn.Read, txn.ClassDSP, 3, 2, 3), 2)
	done := drive(c, 2000, 3)
	if done[0] != 2 {
		t.Fatalf("QoS served %v first, want txn 2 (priority 7)", done[0])
	}
	if done[1] != 3 {
		t.Fatalf("QoS served %v second, want txn 3 (priority 3)", done[1])
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	c, d := newTestController(FRFCFS)
	// txn 1 opens row 1; txn 2 (older) conflicts on row 2; txn 3 (younger)
	// hits row 1. FR-FCFS should serve 1 then 3 then 2.
	c.Enqueue(mkTxn(d, 1, txn.Read, txn.ClassCPU, 0, 0, 1), 0)
	c.Enqueue(mkTxn(d, 2, txn.Read, txn.ClassCPU, 0, 0, 2), 1)
	c.Enqueue(mkTxn(d, 3, txn.Read, txn.ClassCPU, 0, 0, 1), 2)
	done := drive(c, 3000, 3)
	if done[0] != 1 || done[1] != 3 || done[2] != 2 {
		t.Fatalf("FR-FCFS order %v, want [1 3 2]", done)
	}
}

func TestFrameRateUrgentFirst(t *testing.T) {
	c, d := newTestController(FrameRate)
	a := mkTxn(d, 1, txn.Read, txn.ClassCPU, 0, 0, 1)
	b := mkTxn(d, 2, txn.Read, txn.ClassMedia, 0, 1, 1)
	b.Urgent = true
	c.Enqueue(a, 0)
	c.Enqueue(b, 1)
	done := drive(c, 2000, 2)
	if done[0] != 2 {
		t.Fatalf("frame-rate policy served %v first, want urgent txn 2", done[0])
	}
}

func TestQoSRBDeltaGating(t *testing.T) {
	// Policy 2: a row hit beats a non-hit when both priorities are below
	// delta; an urgent transaction (>= delta) goes first regardless.
	c, d := newTestController(QoSRB)

	// Open row 1 via txn 1 (highest priority, so it activates first).
	c.Enqueue(mkTxn(d, 1, txn.Read, txn.ClassCPU, 5, 0, 1), 0)
	// Older conflict at priority 3 (below delta).
	c.Enqueue(mkTxn(d, 2, txn.Read, txn.ClassGPU, 3, 0, 2), 1)
	// Younger hit at priority 0.
	c.Enqueue(mkTxn(d, 3, txn.Read, txn.ClassDSP, 0, 0, 1), 2)
	done := drive(c, 3000, 3)
	if done[0] != 1 || done[1] != 3 {
		t.Fatalf("QoS-RB below-delta order %v, want hit (3) before conflict (2)", done)
	}

	// The precharge guard itself: an urgent conflict (priority >= delta)
	// may close a row past lower-priority queued hits; a low-priority
	// conflict may not.
	c2, d2 := newTestController(QoSRB)
	c2.Enqueue(mkTxn(d2, 1, txn.Read, txn.ClassCPU, 7, 0, 1), 0)
	urgent := entry{t: mkTxn(d2, 2, txn.Read, txn.ClassGPU, 7, 0, 2)}
	urgent.loc = d2.Mapper().Decode(urgent.t.Addr)
	calm := entry{t: mkTxn(d2, 4, txn.Read, txn.ClassGPU, 3, 0, 2)}
	calm.loc = d2.Mapper().Decode(calm.t.Addr)
	c2.Enqueue(mkTxn(d2, 3, txn.Read, txn.ClassDSP, 0, 0, 1), 2)
	// Open row 1 so txn 3 becomes a queued hit.
	for now := sim.Cycle(0); now < 200 && c2.Stats().Served == 0; now++ {
		c2.Tick(now)
	}
	if !c2.allowPrecharge(&urgent) {
		t.Fatal("priority-7 conflict should be allowed to precharge past a priority-0 hit")
	}
	if c2.allowPrecharge(&calm) {
		t.Fatal("priority-3 conflict must not precharge past a queued hit")
	}
}

func TestAgingOverridesPriority(t *testing.T) {
	d := dram.New(dram.PaperConfig(1866))
	cfg := DefaultConfig(0)
	cfg.Policy = QoS
	cfg.AgingT = 100
	c := New(cfg, d)

	// Low-priority old transaction vs a stream of fresh high-priority ones.
	c.Enqueue(mkTxn(d, 1, txn.Read, txn.ClassCPU, 0, 0, 1), 0)
	var done []uint64
	c.OnComplete = func(tr *txn.Transaction, at sim.Cycle) { done = append(done, tr.ID) }
	id := uint64(100)
	for now := sim.Cycle(0); now < 2000; now++ {
		if now > 0 && now%10 == 0 && c.SpaceFor(txn.ClassGPU) {
			id++
			c.Enqueue(mkTxn(d, id, txn.Read, txn.ClassGPU, 7, 1, 2), now)
		}
		c.Tick(now)
		if len(done) > 0 && done[0] == 1 {
			// The victim must be served promptly — either through a bus
			// gap (work conservation) or the aging override; it must never
			// wait far beyond the aging limit.
			if now > 100+400 {
				t.Fatalf("aged txn served too late (cycle %d)", now)
			}
			return
		}
	}
	t.Fatal("aged low-priority transaction never served")
}

func TestRRPointerRotation(t *testing.T) {
	c, d := newTestController(RR)
	// One transaction per class, distinct banks so all are issuable.
	for cls := 0; cls < txn.NumClasses; cls++ {
		c.Enqueue(mkTxn(d, uint64(cls+1), txn.Read, txn.Class(cls), 0, cls, 1), sim.Cycle(cls))
	}
	done := drive(c, 4000, txn.NumClasses)
	if len(done) != txn.NumClasses {
		t.Fatalf("completed %d, want %d", len(done), txn.NumClasses)
	}
	// Command-level round-robin interleaves ACT/CAS across banks, so the
	// exact completion order varies with DRAM timing; the guarantee is
	// that every class is served exactly once.
	seen := make(map[uint64]bool)
	for _, id := range done {
		if seen[id] {
			t.Fatalf("RR served txn %d twice: %v", id, done)
		}
		seen[id] = true
	}
	st := c.Stats()
	for cls := 0; cls < txn.NumClasses; cls++ {
		if st.PerClass[cls] != 1 {
			t.Fatalf("class %d served %d times, want 1", cls, st.PerClass[cls])
		}
	}
}

func TestRowClassificationStats(t *testing.T) {
	c, d := newTestController(FCFS)
	c.Enqueue(mkTxn(d, 1, txn.Read, txn.ClassCPU, 0, 0, 1), 0) // miss (closed)
	done := drive(c, 1500, 1)
	if len(done) != 1 {
		t.Fatal("txn 1 not served")
	}
	st := c.Stats()
	if st.RowMisses != 1 || st.RowHits != 0 || st.RowConflicts != 0 {
		t.Fatalf("stats %+v after first access, want 1 miss", st)
	}
	// Same row: hit.
	c.Enqueue(mkTxn(d, 2, txn.Read, txn.ClassCPU, 0, 0, 1), 1500)
	for now := sim.Cycle(1500); now < 3000 && c.Pending() > 0; now++ {
		c.Tick(now)
	}
	if st := c.Stats(); st.RowHits != 1 {
		t.Fatalf("stats %+v, want 1 hit", st)
	}
	// Different row: conflict.
	c.Enqueue(mkTxn(d, 3, txn.Read, txn.ClassCPU, 0, 0, 9), 3000)
	for now := sim.Cycle(3000); now < 4500 && c.Pending() > 0; now++ {
		c.Tick(now)
	}
	if st := c.Stats(); st.RowConflicts != 1 {
		t.Fatalf("stats %+v, want 1 conflict", st)
	}
}

func TestWritesComplete(t *testing.T) {
	c, d := newTestController(FCFS)
	c.Enqueue(mkTxn(d, 1, txn.Write, txn.ClassMedia, 0, 0, 1), 0)
	done := drive(c, 2000, 1)
	if len(done) != 1 {
		t.Fatal("write never completed")
	}
	if st := c.Stats(); st.ServedWrites != 1 {
		t.Fatalf("stats %+v, want 1 write", st)
	}
}

// TestNoStarvationUnderAllPolicies is a liveness property: with aging
// enabled, every enqueued transaction eventually completes under every
// policy even while higher-priority traffic keeps arriving.
func TestNoStarvationUnderAllPolicies(t *testing.T) {
	for _, p := range AllPolicies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			d := dram.New(dram.PaperConfig(1866))
			cfg := DefaultConfig(0)
			cfg.Policy = p
			c := New(cfg, d)

			victim := mkTxn(d, 1, txn.Read, txn.ClassSystem, 0, 0, 1)
			c.Enqueue(victim, 0)
			served := false
			c.OnComplete = func(tr *txn.Transaction, at sim.Cycle) {
				if tr.ID == 1 {
					served = true
				}
			}
			id := uint64(10)
			for now := sim.Cycle(0); now < 50000 && !served; now++ {
				// Keep flooding with young, urgent, row-hitting traffic.
				if c.SpaceFor(txn.ClassGPU) {
					id++
					tr := mkTxn(d, id, txn.Read, txn.ClassGPU, 7, 1, 2)
					tr.Urgent = true
					c.Enqueue(tr, now)
				}
				c.Tick(now)
			}
			if !served {
				t.Fatalf("policy %v starved the victim beyond 5x the aging limit", p)
			}
		})
	}
}
