package sim

import (
	"fmt"
	"testing"
)

// dueTick is one Tick call: which ticker, at which cycle, and whether it
// found work.
type dueTick struct {
	at    Cycle
	id    int
	acted bool
}

// dueEdges counts the same-cycle re-arms a run exercised, by direction
// relative to the re-arming ticker, and the re-arms made by events.
type dueEdges struct {
	forward, backward, events int
}

// dueNode is a ticker with pending work cycles. Other nodes and events
// poke it; when it acts it may poke a random node, at now (a same-cycle
// edge, forward or backward in registration order) or later. A node
// without a roster (nil nodes) never pokes. Its choices come from its own
// generator, so two runs that tick it identically make identical choices.
type dueNode struct {
	id      int
	wake    WakeHandle
	pending []Cycle
	rng     *Rand
	nodes   *[]*dueNode
	log     *[]dueTick
	edges   *dueEdges
}

func (n *dueNode) BindWake(h WakeHandle) { n.wake = h }

func (n *dueNode) poke(at Cycle) {
	n.pending = append(n.pending, at)
	n.wake.Rearm(at)
}

func (n *dueNode) Tick(now Cycle) {
	acted := false
	kept := n.pending[:0]
	for _, at := range n.pending {
		if at <= now {
			acted = true
		} else {
			kept = append(kept, at)
		}
	}
	n.pending = kept
	*n.log = append(*n.log, dueTick{now, n.id, acted})
	if !acted || n.nodes == nil || !n.rng.Bool(0.7) {
		return
	}
	nodes := *n.nodes
	j := n.rng.Intn(len(nodes))
	delay := Cycle(0)
	if n.rng.Bool(0.4) {
		delay = Cycle(1 + n.rng.Intn(30))
	}
	if delay == 0 && j > n.id {
		n.edges.forward++
	} else if delay == 0 && j < n.id {
		n.edges.backward++
	}
	nodes[j].poke(now + delay)
}

func (n *dueNode) NextActivity(now Cycle) (Cycle, bool) {
	if len(n.pending) == 0 {
		return 0, false
	}
	next := n.pending[0]
	for _, at := range n.pending[1:] {
		if at < next {
			next = at
		}
	}
	if next <= now {
		return now, true
	}
	return next, true
}

// runLinear is Kernel.Run with the due-set walk replaced by the walk it
// replaced: every registered ticker in id order, ticked iff its cached
// wake is at or before now when the walk reaches it.
func runLinear(k *Kernel, horizon Cycle) {
	for k.now < horizon {
		k.started = true
		for len(k.events) > 0 && k.events[0].at <= k.now {
			e := k.events.pop()
			if e.fn != nil {
				e.fn(k.now)
			} else {
				e.argFn(k.now, e.arg)
			}
		}
		now := k.now
		for i, t := range k.tickers {
			if k.wakes.at[i] > now {
				continue
			}
			t.Tick(now)
			next, ok := t.NextActivity(now + 1)
			if !ok {
				next = never
			}
			k.wakes.set(i, next, now)
		}
		k.now++
		if k.now < horizon {
			k.fastForward(horizon)
		}
	}
	k.settleRun()
}

// dueDrive selects how runDueNodes runs its three segments.
type dueDrive int

const (
	driveActive   dueDrive = iota // Run throughout
	driveLinear                   // runLinear throughout
	driveSwitched                 // the middle segment as the stepped reference
)

// runDueNodes builds n randomized dueNodes with scripted work and
// event-driven pokes, and runs them to horizon in three segments, poking
// a random node from outside Run between segments.
func runDueNodes(seed uint64, n int, drive dueDrive) ([]dueTick, dueEdges) {
	const horizon = 2000
	rng := NewRand(seed)
	var k Kernel
	var log []dueTick
	var edges dueEdges
	var nodes []*dueNode
	for i := 0; i < n; i++ {
		nd := &dueNode{id: i, rng: rng.Fork(uint64(i)), nodes: &nodes, log: &log, edges: &edges}
		for j := rng.Intn(3); j > 0; j-- {
			nd.pending = append(nd.pending, Cycle(rng.Intn(horizon)))
		}
		nodes = append(nodes, nd)
		k.Register(nd)
	}
	for j := 0; j < n/2+3; j++ {
		at := Cycle(rng.Intn(horizon))
		target := nodes[rng.Intn(n)]
		delay := Cycle(rng.Intn(2) * rng.Intn(10))
		k.At(at, func(now Cycle) {
			edges.events++
			target.poke(now + delay)
		})
	}
	for seg := Cycle(1); seg <= 3; seg++ {
		if drive == driveLinear {
			runLinear(&k, seg*horizon/3)
		} else {
			k.SetReference(drive == driveSwitched && seg == 2)
			k.Run(seg * horizon / 3)
		}
		nodes[rng.Intn(n)].poke(k.Now())
	}
	return log, edges
}

// TestDueSetMatchesLinearWalk is the differential for stepActive's due
// set: randomized tickers re-arming each other within and across cycles,
// from ticks, from events that fire before the tickers and from outside
// Run, must be ticked at exactly the cycles and in exactly the order the
// linear walk over every registered ticker ticks them. The populations
// span one bitset word and several.
func TestDueSetMatchesLinearWalk(t *testing.T) {
	var total dueEdges
	for _, n := range []int{3, 64, 70, 171} {
		for seed := uint64(1); seed <= 12; seed++ {
			want, _ := runDueNodes(seed, n, driveLinear)
			got, edges := runDueNodes(seed, n, driveActive)
			total.forward += edges.forward
			total.backward += edges.backward
			total.events += edges.events
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					var g any = "nothing"
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("n=%d seed %d: tick %d is %v, linear walk %+v", n, seed, i, g, want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d seed %d: %d ticks, linear walk %d", n, seed, len(got), len(want))
			}
		}
	}
	if total.forward == 0 || total.backward == 0 || total.events == 0 {
		t.Fatalf("vacuous run: %+v same-cycle edges and event re-arms", total)
	}
}

// TestReferenceSwitchedOffMidRun pins SetReference(false) after a
// stepped segment: the stepped run advances the clock without re-keying
// any cached wake, so the keys it passed must be re-filed as due, or the
// wheel would leave their tickers unticked until their stale slots come
// round again. Acting ticks must match an uninterrupted active-list run.
func TestReferenceSwitchedOffMidRun(t *testing.T) {
	acts := func(log []dueTick) []dueTick {
		var out []dueTick
		for _, e := range log {
			if e.acted {
				out = append(out, e)
			}
		}
		return out
	}
	for _, n := range []int{5, 70, 171} {
		for seed := uint64(1); seed <= 12; seed++ {
			ref, _ := runDueNodes(seed, n, driveActive)
			got, _ := runDueNodes(seed, n, driveSwitched)
			want, have := acts(ref), acts(got)
			for i := range max(len(want), len(have)) {
				if i >= len(want) || i >= len(have) || have[i] != want[i] {
					t.Fatalf("n=%d seed %d: act %d differs: switched run %v, uninterrupted %v",
						n, seed, i, have[i:min(i+4, len(have))], want[i:min(i+4, len(want))])
				}
			}
		}
	}
}

// edgeTicker is a ticker with one scripted act, at which it pokes the
// listed nodes at the same cycle.
type edgeTicker struct {
	dueNode
	pokes []*edgeTicker
}

func (e *edgeTicker) Tick(now Cycle) {
	acted := len(e.pending) > 0 && e.pending[0] <= now
	e.dueNode.Tick(now)
	if acted {
		for _, p := range e.pokes {
			p.poke(now)
		}
	}
}

// TestDueSetSameCycleEdges pins the two edge directions across bitset
// words: a re-arm at now of a ticker registered later ticks it this
// cycle, and a re-arm at now of one registered earlier ticks it only at
// now+1, as in a stepped run.
func TestDueSetSameCycleEdges(t *testing.T) {
	const n = 150
	for _, skip := range []bool{true, false} {
		t.Run(fmt.Sprintf("skip=%v", skip), func(t *testing.T) {
			var k Kernel
			k.SetReference(!skip)
			var log []dueTick
			ts := make([]*edgeTicker, n)
			for i := range ts {
				ts[i] = &edgeTicker{dueNode: dueNode{id: i, log: &log}}
				k.Register(ts[i])
			}
			// 100 acts at 50 and pokes 149 (a later word) and 3 (an
			// earlier word); 149 then pokes 120, back in 100's word.
			ts[100].pending = []Cycle{50}
			ts[100].pokes = []*edgeTicker{ts[149], ts[3]}
			ts[149].pokes = []*edgeTicker{ts[120]}
			k.Run(60)
			var acts []dueTick
			for _, e := range log {
				if e.acted {
					acts = append(acts, e)
				}
			}
			want := []dueTick{{50, 100, true}, {50, 149, true}, {51, 3, true}, {51, 120, true}}
			if fmt.Sprint(acts) != fmt.Sprint(want) {
				t.Fatalf("acts %v, want %v", acts, want)
			}
		})
	}
}

// benchTicker is due every period cycles, at its phase. When poke is set
// it re-arms that ticker at the current cycle on each of its scheduled
// ticks.
type benchTicker struct {
	k             *Kernel
	period, phase Cycle
	poke          int
}

func (b *benchTicker) Tick(now Cycle) {
	if b.poke >= 0 && now%b.period == b.phase {
		b.k.Rearm(b.poke, now)
	}
}

func (b *benchTicker) NextActivity(now Cycle) (Cycle, bool) {
	return now + (b.phase+b.period-now%b.period)%b.period, true
}

// BenchmarkStepActive prices one executed cycle of the active list: 171
// registered tickers, the SoC's roster size. In the due4 leg about 4 are
// due per cycle (phases spread over a 43-cycle period). In the rearm leg
// each scheduled ticker also re-arms a dormant ticker registered after it
// at the same cycle: the forward edge, costing a wake-wheel decrease-key
// into the soon set and one more tick per re-arm. In the far leg every
// ticker sleeps 100 to 5,000 cycles between acts, so its re-key lands
// beyond the wheel's window and later steps migrate it back in.
func BenchmarkStepActive(b *testing.B) {
	legs := []struct {
		name   string
		period func(i int) Cycle
		rearm  bool
	}{
		{"due4", func(int) Cycle { return 43 }, false},
		{"due4+rearm", func(int) Cycle { return 43 }, true},
		{"far", func(i int) Cycle { return Cycle(100 + i*29) }, false},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			const n = 171
			var k Kernel
			maxPeriod := Cycle(0)
			for i := 0; i < n; i++ {
				p := leg.period(i)
				maxPeriod = max(maxPeriod, p)
				t := &benchTicker{k: &k, period: p, phase: Cycle(i) % p, poke: -1}
				if leg.rearm && i+int(p/2) < n {
					t.poke = i + int(p/2)
				}
				k.Register(t)
			}
			for i := Cycle(0); i < 2*maxPeriod; i++ {
				k.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
