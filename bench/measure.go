package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// now reads the host clock. Every wall-clock read of the benchmark goes
// through it: the benchmark times the simulator from outside, and no
// reading ever reaches simulated state.
func now() time.Time {
	return time.Now() //sara:wallclock the benchmark measures host time by design
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	//sara:wallclock host CPU accounting for exp.cpu_util; never reaches simulated state
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one timed call into the simulator's public API, or a group of
// them. Spans of one round share a trace id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a round's root span
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; they are written out when the
// run ends. begin nests the new span under the innermost open one.
type tracer struct {
	t0    time.Time
	trace int
	spans []span
	open  []int
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name, Start: int64(now().Sub(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(now().Sub(t.t0))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.End - s.Start)
}

// selfTimes returns every span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, k := range iv {
			lo, hi := max(k[0], reach), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs and how many
// samples lie beyond it. A tail percentile is worth reporting only with
// at least ten samples beyond it.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// runtimeSnap is the Go runtime's view of the process at one instant.
type runtimeSnap struct {
	allocBytes float64 // cumulative heap allocations
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to Go code
	cpu        time.Duration
}

func readRuntime() runtimeSnap {
	// ReadMemStats flushes every P's allocation cache first, so its
	// TotalAlloc is exact; /gc/heap/allocs:bytes counts a cached span as
	// fully allocated and moves with GC timing.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: float64(ms.TotalAlloc),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		cpu:        cpuTime(),
	}
}

// liveHeap returns the heap bytes the last completed GC found live.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
