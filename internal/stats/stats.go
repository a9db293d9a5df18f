// Package stats provides the small statistics toolkit used across the
// simulator: windowed rate estimators, exponentially weighted moving
// averages, time series with summary statistics, histograms of discrete
// levels, and CSV export helpers for the experiment harness.
package stats

import (
	"fmt"
	"io"
	"math"

	"sara/internal/sim"
)

// EWMA is an exponentially weighted moving average. The zero value is
// unusable; create with NewEWMA.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent samples more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Add folds sample x into the average.
func (e *EWMA) Add(x float64) {
	if !e.primed {
		e.value, e.primed = x, true
		return
	}
	e.value += e.alpha * (x - e.value)
}

// Value reports the current average, or 0 before the first sample.
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been added.
func (e *EWMA) Primed() bool { return e.primed }

// Counter accumulates an amount (e.g. bytes) and converts it to a rate over
// a sliding window of fixed length. It is the building block of the
// bandwidth and occupancy meters.
type Counter struct {
	window  sim.Cycle
	buckets []float64
	bucketW sim.Cycle
	head    int
	headEnd sim.Cycle
	total   float64
}

// NewCounter returns a Counter covering the trailing window cycles using
// nbuckets sub-buckets (resolution window/nbuckets).
func NewCounter(window sim.Cycle, nbuckets int) *Counter {
	if nbuckets <= 0 || window == 0 || sim.Cycle(nbuckets) > window {
		panic("stats: invalid Counter geometry")
	}
	bw := window / sim.Cycle(nbuckets)
	return &Counter{
		window:  bw * sim.Cycle(nbuckets),
		buckets: make([]float64, nbuckets),
		bucketW: bw,
		headEnd: bw,
	}
}

// advance rotates buckets until now falls in the head bucket. A gap of a
// full window or more means every bucket has expired, so it clamps to one
// O(nbuckets) reset instead of rotating bucket by bucket — the first
// sample after a fast-forwarded dormant stretch must not do O(gap/bucketW)
// work. The clamp lands head and headEnd exactly where the rotation loop
// would, so short-gap behavior is bit-identical.
func (c *Counter) advance(now sim.Cycle) {
	if now < c.headEnd {
		return
	}
	if gap := now - c.headEnd; gap >= c.window {
		steps := gap/c.bucketW + 1
		c.head = (c.head + int(steps%sim.Cycle(len(c.buckets)))) % len(c.buckets)
		c.headEnd += steps * c.bucketW
		for i := range c.buckets {
			c.buckets[i] = 0
		}
		c.total = 0
		return
	}
	for now >= c.headEnd {
		c.head = (c.head + 1) % len(c.buckets)
		c.total -= c.buckets[c.head]
		c.buckets[c.head] = 0
		c.headEnd += c.bucketW
	}
}

// Add records amount at cycle now.
func (c *Counter) Add(now sim.Cycle, amount float64) {
	c.advance(now)
	c.buckets[c.head] += amount
	c.total += amount
}

// Total reports the amount accumulated over the trailing window as of now.
func (c *Counter) Total(now sim.Cycle) float64 {
	c.advance(now)
	return c.total
}

// Rate reports Total divided by the effective window length. Before a full
// window has elapsed the divisor is the elapsed time, so early rates are
// not biased low.
func (c *Counter) Rate(now sim.Cycle) float64 {
	c.advance(now)
	span := c.window
	if now < span {
		span = now
	}
	if span == 0 {
		return 0
	}
	return c.total / float64(span)
}

// Window reports the configured window length in cycles.
func (c *Counter) Window() sim.Cycle { return c.window }

// Series is a sampled time series of (cycle, value) points with running
// summary statistics.
type Series struct {
	Name   string
	Cycles []sim.Cycle
	Values []float64
}

// Append adds one sample.
func (s *Series) Append(at sim.Cycle, v float64) {
	s.Cycles = append(s.Cycles, at)
	s.Values = append(s.Values, v)
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Min returns the minimum value, or +Inf for an empty series.
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the maximum value, or -Inf for an empty series.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the arithmetic mean, or NaN for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Summary aggregates one scalar metric across independent runs (e.g. the
// worst min-NPI across a seed fan-out): sample mean, Bessel-corrected
// standard deviation and the half-width of a normal-approximation 95%
// confidence interval.
type Summary struct {
	N         int
	Mean, Std float64
	CI95      float64
}

// Summarize computes the Summary of xs. With fewer than two samples the
// spread terms are zero.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(s.N)
	if s.N < 2 {
		return s
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N-1))
	s.CI95 = 1.96 * s.Std / math.Sqrt(float64(s.N))
	return s
}

// LevelHistogram counts time spent at small discrete levels (priority
// levels 0..n-1 in the Fig. 7 experiment).
type LevelHistogram struct {
	counts []uint64
	total  uint64
}

// NewLevelHistogram returns a histogram over levels 0..n-1.
func NewLevelHistogram(n int) *LevelHistogram {
	return &LevelHistogram{counts: make([]uint64, n)}
}

// Add records weight units of time at level.
func (h *LevelHistogram) Add(level int, weight uint64) {
	if level < 0 || level >= len(h.counts) {
		panic(fmt.Sprintf("stats: level %d out of range 0..%d", level, len(h.counts)-1))
	}
	h.counts[level] += weight
	h.total += weight
}

// Fraction reports the share of total weight spent at level, or 0 if empty.
func (h *LevelHistogram) Fraction(level int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[level]) / float64(h.total)
}

// Levels reports the number of levels.
func (h *LevelHistogram) Levels() int { return len(h.counts) }

// Total reports the accumulated weight.
func (h *LevelHistogram) Total() uint64 { return h.total }

// WriteCSV writes the given series side by side: a cycle column taken from
// the first series followed by one value column per series. All series must
// have identical sampling points; WriteCSV returns an error otherwise.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	n := series[0].Len()
	for _, s := range series[1:] {
		if s.Len() != n {
			return fmt.Errorf("stats: series %q has %d samples, want %d", s.Name, s.Len(), n)
		}
		for i, cyc := range s.Cycles {
			if cyc != series[0].Cycles[i] {
				return fmt.Errorf("stats: series %q sample %d is at cycle %d, but series %q has cycle %d there",
					s.Name, i, cyc, series[0].Name, series[0].Cycles[i])
			}
		}
	}
	if _, err := fmt.Fprint(w, "cycle"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, ",%s", s.Name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%d", series[0].Cycles[i]); err != nil {
			return err
		}
		for _, s := range series {
			if _, err := fmt.Fprintf(w, ",%.6g", s.Values[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
