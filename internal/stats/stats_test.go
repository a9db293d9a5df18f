package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sara/internal/sim"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Primed() {
		t.Fatal("fresh EWMA claims primed")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample %v, want 10", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("EWMA %v, want 15", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEWMA(0)
}

func TestCounterRate(t *testing.T) {
	c := NewCounter(1000, 10)
	for now := sim.Cycle(0); now < 2000; now += 10 {
		c.Add(now, 10) // 1 unit/cycle
	}
	rate := c.Rate(2000)
	if math.Abs(rate-1.0) > 0.15 {
		t.Fatalf("rate %v, want ~1.0", rate)
	}
	// After a long silent gap the window empties.
	if total := c.Total(4001); total != 0 {
		t.Fatalf("stale total %v, want 0", total)
	}
}

func TestCounterEarlyRateUnbiased(t *testing.T) {
	c := NewCounter(10000, 10)
	c.Add(100, 200) // 2/cycle over the first 100 cycles
	rate := c.Rate(100)
	if math.Abs(rate-2.0) > 0.01 {
		t.Fatalf("early rate %v, want 2.0 (divide by elapsed, not window)", rate)
	}
}

func TestCounterConservationProperty(t *testing.T) {
	// Property: within one window, Total equals the sum of amounts added.
	f := func(amounts []uint8) bool {
		c := NewCounter(4096, 16)
		var sum float64
		now := sim.Cycle(0)
		for _, a := range amounts {
			if len(amounts) > 16 {
				return true
			}
			c.Add(now, float64(a))
			sum += float64(a)
			now += 10
		}
		return math.Abs(c.Total(now)-sum) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCounter(10, 20)
}

func TestSeriesSummaries(t *testing.T) {
	s := &Series{Name: "x"}
	for i, v := range []float64{3, 1, 4, 1, 5} {
		s.Append(sim.Cycle(i), v)
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max %v/%v, want 1/5", s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-2.8) > 1e-9 {
		t.Fatalf("mean %v, want 2.8", s.Mean())
	}
	empty := &Series{}
	if !math.IsInf(empty.Min(), 1) || !math.IsNaN(empty.Mean()) {
		t.Fatal("empty series summaries wrong")
	}
}

func TestLevelHistogram(t *testing.T) {
	h := NewLevelHistogram(8)
	h.Add(0, 90)
	h.Add(7, 10)
	if h.Fraction(0) != 0.9 || h.Fraction(7) != 0.1 {
		t.Fatalf("fractions %v/%v, want 0.9/0.1", h.Fraction(0), h.Fraction(7))
	}
	if h.Levels() != 8 || h.Total() != 100 {
		t.Fatalf("levels/total %d/%d", h.Levels(), h.Total())
	}
}

func TestLevelHistogramRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLevelHistogram(4).Add(4, 1)
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Append(0, 1)
	a.Append(10, 2)
	b.Append(0, 3)
	b.Append(10, 4)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	want := "cycle,a,b\n0,1,3\n10,2,4\n"
	if sb.String() != want {
		t.Fatalf("CSV %q, want %q", sb.String(), want)
	}
	// Mismatched lengths error out.
	b.Append(20, 5)
	if err := WriteCSV(&sb, a, b); err == nil {
		t.Fatal("mismatched series accepted")
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.Std != 0 || s.CI95 != 0 {
		t.Fatalf("empty summary %+v, want zeros", s)
	}
	if s := Summarize([]float64{3}); s.N != 1 || s.Mean != 3 || s.Std != 0 || s.CI95 != 0 {
		t.Fatalf("single-sample summary %+v, want mean 3 and zero spread", s)
	}
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary %+v, want N=8 mean=5", s)
	}
	// Bessel-corrected std of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std, want)
	}
	wantCI := 1.96 * want / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Fatalf("CI95 %v, want %v", s.CI95, wantCI)
	}
	// Constant samples: zero spread.
	if s := Summarize([]float64{1, 1, 1}); s.Std != 0 || s.CI95 != 0 {
		t.Fatalf("constant-sample summary %+v, want zero spread", s)
	}
}

// advanceLoop is the pre-clamp reference for Counter.advance: rotate one
// bucketW at a time, however long the gap. The clamped fast path must
// land head, headEnd, buckets and total exactly where this loop does.
func advanceLoop(c *Counter, now sim.Cycle) {
	for now >= c.headEnd {
		c.head = (c.head + 1) % len(c.buckets)
		c.total -= c.buckets[c.head]
		c.buckets[c.head] = 0
		c.headEnd += c.bucketW
	}
}

func counterStateEqual(a, b *Counter) bool {
	if a.head != b.head || a.headEnd != b.headEnd || a.total != b.total {
		return false
	}
	for i := range a.buckets {
		if a.buckets[i] != b.buckets[i] {
			return false
		}
	}
	return true
}

func TestCounterAdvanceClampMatchesRotation(t *testing.T) {
	// Drive two identical counters through adds separated by gaps both
	// shorter and (much) longer than the window; the clamped advance must
	// stay bit-identical to the one-bucket-at-a-time reference, including
	// across a multi-million-cycle dormant stretch.
	c := NewCounter(1000, 10)
	r := NewCounter(1000, 10)
	now := sim.Cycle(0)
	gaps := []sim.Cycle{1, 37, 99, 100, 101, 450, 999, 1000, 1001, 2500,
		10_000, 7, 3_000_000, 12, 950, 25_000_000, 1, 999, 1050}
	for i, g := range gaps {
		amount := float64(i%5) + 0.25
		c.Add(now, amount)
		advanceLoop(r, now)
		r.buckets[r.head] += amount
		r.total += amount
		if !counterStateEqual(c, r) {
			t.Fatalf("state diverged after add %d at cycle %d:\nclamp %+v\nloop  %+v", i, now, c, r)
		}
		now += g
		c.advance(now)
		advanceLoop(r, now)
		if !counterStateEqual(c, r) {
			t.Fatalf("state diverged after gap %d ending at cycle %d:\nclamp %+v\nloop  %+v", g, now, c, r)
		}
		if ct, rt := c.Total(now), r.total; ct != rt {
			t.Fatalf("Total %v, reference %v at cycle %d", ct, rt, now)
		}
	}
}

func TestCounterDormantGapResets(t *testing.T) {
	c := NewCounter(1000, 10)
	c.Add(100, 42)
	if total := c.Total(100); total != 42 {
		t.Fatalf("total %v, want 42", total)
	}
	// A gap of several million cycles empties the window in one step.
	if total := c.Total(5_000_100); total != 0 {
		t.Fatalf("total after dormant gap %v, want 0", total)
	}
	if rate := c.Rate(5_000_100); rate != 0 {
		t.Fatalf("rate after dormant gap %v, want 0", rate)
	}
	// The counter keeps working normally afterwards.
	c.Add(5_000_200, 7)
	if total := c.Total(5_000_200); total != 7 {
		t.Fatalf("total after resume %v, want 7", total)
	}
}

func TestWriteCSVCycleMismatch(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Append(0, 1)
	a.Append(10, 2)
	b.Append(0, 3)
	b.Append(20, 4) // same length, sampled at a different cycle
	var sb strings.Builder
	err := WriteCSV(&sb, a, b)
	if err == nil {
		t.Fatal("cycle-mismatched series accepted")
	}
	for _, frag := range []string{`"b"`, "sample 1", "cycle 20", "cycle 10"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not name %s", err, frag)
		}
	}
	if sb.Len() != 0 {
		t.Fatalf("partial CSV %q written despite error", sb.String())
	}
}
