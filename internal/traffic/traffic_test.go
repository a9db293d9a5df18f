package traffic

import (
	"testing"

	"sara/internal/dma"
	"sara/internal/meter"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// newChunkMeter builds a progress-less chunk meter for source tests.
func newChunkMeter(_ *testing.T, deadline sim.Cycle) *meter.ChunkMeter {
	return meter.NewChunkMeter(deadline, nil)
}

// harness wires one DMA through a single-port router into a collecting
// sink and completes every granted transaction after a fixed latency —
// a minimal memory system with configurable service rate.
type harness struct {
	engine *dma.Engine
	router *noc.Router
	nextID uint64

	latency  sim.Cycle
	inflight []pendingTxn
	served   uint64
}

type pendingTxn struct {
	t  *txn.Transaction
	at sim.Cycle
}

func newHarness(window int, latency sim.Cycle) *harness {
	h := &harness{latency: latency}
	sink := sinkFunc(func(t *txn.Transaction, now sim.Cycle) {
		h.served++
		h.inflight = append(h.inflight, pendingTxn{t: t, at: now + h.latency})
	})
	h.router = noc.NewRouter("t", noc.Params{PortDepth: 16, Arb: noc.ArbFCFS}, 1, []noc.Sink{sink}, nil)
	h.engine = dma.New(dma.Config{
		Name: "t", Core: "T", Class: txn.ClassMedia, Window: window,
	}, 0, &h.nextID, h.router.Port(0), 0)
	return h
}

// step advances one cycle.
func (h *harness) step(now sim.Cycle, src Source) {
	src.Tick(now)
	h.engine.Tick(now)
	h.router.Tick(now)
	keep := h.inflight[:0]
	for _, p := range h.inflight {
		if p.at <= now {
			h.engine.Deliver(p.t, now)
		} else {
			keep = append(keep, p)
		}
	}
	h.inflight = keep
}

type sinkFunc func(t *txn.Transaction, now sim.Cycle)

func (f sinkFunc) CanAccept(*txn.Transaction) bool          { return true }
func (f sinkFunc) Accept(t *txn.Transaction, now sim.Cycle) { f(t, now) }

// OnCredit implements noc.Sink; a sink that is never full never returns
// a credit.
func (f sinkFunc) OnCredit(noc.Waker) {}

func region() Region { return Region{Base: 0, Size: 1 << 22} }

func TestFrameSourceCompletesFrames(t *testing.T) {
	h := newHarness(8, 20)
	rng := sim.NewRand(1)
	src := NewFrameSource("f", h.engine, rng, region(), 16*128, 2000, 128, 1, 1)
	for now := sim.Cycle(0); now < 6000; now++ {
		h.step(now, src)
	}
	if src.FramesCompleted < 2 {
		t.Fatalf("completed %d frames, want >= 2", src.FramesCompleted)
	}
	if src.FramesMissed != 0 {
		t.Fatalf("missed %d frames with an idle memory system", src.FramesMissed)
	}
	p, _ := src.Progress()
	if p < 0 || p > 1 {
		t.Fatalf("progress %v out of range", p)
	}
}

func TestFrameSourceMissesWhenStarved(t *testing.T) {
	// Latency so high the frame volume cannot complete in a period.
	h := newHarness(1, 1900)
	rng := sim.NewRand(1)
	src := NewFrameSource("f", h.engine, rng, region(), 64*128, 2000, 128, 1, 1)
	for now := sim.Cycle(0); now < 8000; now++ {
		h.step(now, src)
	}
	if src.FramesMissed == 0 {
		t.Fatal("starved frame source missed no frames")
	}
}

func TestDisplaySourceUnderrun(t *testing.T) {
	h := newHarness(4, 3000) // refill far too slow
	src := NewDisplaySource("d", h.engine, region(), 1.0, 4096, 128)
	for now := sim.Cycle(0); now < 6000; now++ {
		h.step(now, src)
	}
	if src.UnderrunCycles == 0 {
		t.Fatal("starved display never underran")
	}
	if occ := src.Occupancy(); occ > 0.1 {
		t.Fatalf("starved display occupancy %.2f, want near 0", occ)
	}
}

func TestDisplaySourceKeepsUp(t *testing.T) {
	h := newHarness(16, 20)
	src := NewDisplaySource("d", h.engine, region(), 0.5, 8192, 128)
	for now := sim.Cycle(0); now < 20000; now++ {
		h.step(now, src)
	}
	if src.UnderrunCycles != 0 {
		t.Fatalf("healthy display underran %d cycles", src.UnderrunCycles)
	}
	if occ := src.Occupancy(); occ < 0.8 {
		t.Fatalf("healthy display occupancy %.2f, want near full", occ)
	}
}

func TestCameraSourceOverflow(t *testing.T) {
	h := newHarness(2, 4000) // drain too slow
	src := NewCameraSource("c", h.engine, region(), 1.0, 4096, 128)
	for now := sim.Cycle(0); now < 10000; now++ {
		h.step(now, src)
	}
	if src.OverflowBytes() == 0 {
		t.Fatal("starved camera never overflowed")
	}
}

func TestCameraSourceKeepsUp(t *testing.T) {
	h := newHarness(16, 20)
	src := NewCameraSource("c", h.engine, region(), 0.5, 8192, 128)
	for now := sim.Cycle(0); now < 20000; now++ {
		h.step(now, src)
	}
	if src.OverflowBytes() != 0 {
		t.Fatalf("healthy camera overflowed %.0f bytes", src.OverflowBytes())
	}
	if occ := src.Occupancy(); occ > 0.2 {
		t.Fatalf("healthy camera occupancy %.2f, want near empty", occ)
	}
}

func TestSporadicSourceRate(t *testing.T) {
	h := newHarness(8, 10)
	rng := sim.NewRand(2)
	src := NewSporadicSource("s", h.engine, rng, region(), 100, 128, 1)
	const horizon = 100000
	for now := sim.Cycle(0); now < horizon; now++ {
		h.step(now, src)
	}
	got := h.engine.Stats().Completed
	want := float64(horizon) / 100
	if float64(got) < 0.85*want || float64(got) > 1.15*want {
		t.Fatalf("sporadic completions %d, want ~%.0f", got, want)
	}
	if src.Dropped() != 0 {
		t.Fatalf("dropped %d requests with an idle system", src.Dropped())
	}
}

func TestRateSourceDeliversTarget(t *testing.T) {
	h := newHarness(16, 20)
	rng := sim.NewRand(3)
	src := NewRateSource("r", h.engine, rng, region(), 2.0, 128, 4, 0.5)
	const horizon = 50000
	for now := sim.Cycle(0); now < horizon; now++ {
		h.step(now, src)
	}
	bytes := h.engine.Stats().BytesCompleted
	want := 2.0 * horizon
	if float64(bytes) < 0.9*want || float64(bytes) > 1.1*want {
		t.Fatalf("rate source moved %d bytes, want ~%.0f", bytes, want)
	}
}

func TestChunkSourceDeadlines(t *testing.T) {
	h := newHarness(8, 10)
	rng := sim.NewRand(4)
	cm := newChunkMeter(t, 1000)
	src := NewChunkSource("g", h.engine, rng, region(), 8*128, 2000, 128, 1, cm)
	for now := sim.Cycle(0); now < 10000; now++ {
		h.step(now, src)
	}
	if src.ChunksDone == 0 {
		t.Fatal("no chunks completed")
	}
	if src.ChunksMissed+src.ChunksOverrun != 0 {
		t.Fatalf("missed %d / overran %d chunks on an idle system",
			src.ChunksMissed, src.ChunksOverrun)
	}
}

func TestCPUSourceLocalityStaysInRegion(t *testing.T) {
	h := newHarness(8, 10)
	rng := sim.NewRand(5)
	src := NewCPUSource("cpu", h.engine, rng, region(), 1.0, 128, 0.7, 0.6)
	var bad bool
	h.engine.OnComplete(func(tr *txn.Transaction, now sim.Cycle) {
		if uint64(tr.Addr) >= region().Size {
			bad = true
		}
	})
	for now := sim.Cycle(0); now < 20000; now++ {
		h.step(now, src)
	}
	if bad {
		t.Fatal("CPU source escaped its region")
	}
	if h.engine.Stats().Completed == 0 {
		t.Fatal("CPU source produced nothing")
	}
}

func TestStreamWraps(t *testing.T) {
	s := newStream(Region{Base: 0, Size: 512}, 128)
	seen := map[txn.Addr]int{}
	for i := 0; i < 12; i++ {
		seen[s.next()]++
	}
	for addr, n := range seen {
		if uint64(addr)+128 > 512 {
			t.Fatalf("stream address %#x out of region", uint64(addr))
		}
		if n == 0 {
			t.Fatal("impossible")
		}
	}
}
