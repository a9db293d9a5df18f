package sara_test

import (
	"testing"

	"sara"
	"sara/internal/sim"
)

// The aggregate equivalence tests compare end-of-run statistics; these
// compare the full command and injection streams, so an idle-skipping bug
// that reorders work without changing totals cannot hide.

type tracedCmd struct {
	ch   int
	now  sim.Cycle
	id   uint64
	kind byte
}

type tracedInj struct {
	now  sim.Cycle
	src  int
	id   uint64
	addr uint64
}

type tracedGrant struct {
	router string
	now    sim.Cycle
	port   int
	out    int
	id     uint64
}

// tracedCredit is one credit-side event: a router input-port pop (wasFull
// marks pops that actually returned a credit upstream) or a controller
// class-queue release (name "mcN", port = class, always wasFull).
type tracedCredit struct {
	name    string
	now     sim.Cycle
	port    int
	wasFull bool
}

// tracedWake is one DMA injection-wake re-arm: engine src re-armed its
// cached next-injection cycle to at because of cause ('D' delivery, 'C'
// port credit). Enqueues are not part of this stream: they leave the
// engine's cached wake alone — the Tick gate reads the live queue — and
// only nudge the kernel's wake-heap entry so the active-ticker list runs
// that Tick in the enqueue cycle. The re-arm stream is pure behavior, so
// a stale or missing wake diverges it instead of silently stalling a
// core.
type tracedWake struct {
	src   int
	at    sim.Cycle
	cause byte
}

type traces struct {
	cmds    []tracedCmd
	injs    []tracedInj
	grants  []tracedGrant
	credits []tracedCredit
	wakes   []tracedWake
}

// runTraced runs case A under policy and records every trace stream. With
// reference set it is the cycle-stepped reference (the kernel's
// SetReference mode): idle skipping off and every dormancy cache
// bypassed (router grant windows, controller buckets, DMA injection
// wakes), so a stale cached bound diverges the trace instead of being
// shared by both modes. Without it it is the production path, idle
// skipping driven by the kernel's wake heap.
func runTraced(policy sara.Policy, reference, refresh bool, cycles sim.Cycle) traces {
	var tr traces
	sys := sara.Build(sara.Camcorder(sara.CaseA,
		sara.WithPolicy(policy), sara.WithRefresh(refresh)))
	sys.Probe(sara.Probes{
		Command: func(ch int, now sim.Cycle, id uint64, kind byte) {
			tr.cmds = append(tr.cmds, tracedCmd{ch, now, id, kind})
		},
		Inject: func(now sim.Cycle, src int, id uint64, addr uint64) {
			tr.injs = append(tr.injs, tracedInj{now, src, id, addr})
		},
		Wake: func(src int, at sim.Cycle, cause byte) {
			tr.wakes = append(tr.wakes, tracedWake{src, at, cause})
		},
		Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			tr.grants = append(tr.grants, tracedGrant{name, now, port, out, id})
		},
		Credit: func(name string, now sim.Cycle, port int, wasFull bool) {
			tr.credits = append(tr.credits, tracedCredit{name, now, port, wasFull})
		},
	})
	sys.Kernel().SetReference(reference)
	sys.Run(cycles)
	return tr
}

// compareTraces asserts the full command, injection and NoC grant streams
// are bit-identical between the cycle-stepped reference and the
// idle-skipping run.
func compareTraces(t *testing.T, ref, fast traces) {
	t.Helper()
	if len(ref.cmds) != len(fast.cmds) {
		t.Fatalf("command counts differ: %d vs %d", len(ref.cmds), len(fast.cmds))
	}
	for i := range ref.cmds {
		if ref.cmds[i] != fast.cmds[i] {
			t.Fatalf("command %d differs: reference %+v, idle-skipping %+v",
				i, ref.cmds[i], fast.cmds[i])
		}
	}
	if len(ref.injs) != len(fast.injs) {
		t.Fatalf("injection counts differ: %d vs %d", len(ref.injs), len(fast.injs))
	}
	for i := range ref.injs {
		if ref.injs[i] != fast.injs[i] {
			t.Fatalf("injection %d differs: reference %+v, idle-skipping %+v",
				i, ref.injs[i], fast.injs[i])
		}
	}
	if len(ref.grants) != len(fast.grants) {
		t.Fatalf("NoC grant counts differ: %d vs %d", len(ref.grants), len(fast.grants))
	}
	for i := range ref.grants {
		if ref.grants[i] != fast.grants[i] {
			t.Fatalf("NoC grant %d differs: reference %+v, idle-skipping %+v",
				i, ref.grants[i], fast.grants[i])
		}
	}
	if len(ref.credits) != len(fast.credits) {
		t.Fatalf("credit counts differ: %d vs %d", len(ref.credits), len(fast.credits))
	}
	for i := range ref.credits {
		if ref.credits[i] != fast.credits[i] {
			t.Fatalf("credit %d differs: reference %+v, idle-skipping %+v",
				i, ref.credits[i], fast.credits[i])
		}
	}
	if len(ref.wakes) != len(fast.wakes) {
		t.Fatalf("DMA wake counts differ: %d vs %d", len(ref.wakes), len(fast.wakes))
	}
	for i := range ref.wakes {
		if ref.wakes[i] != fast.wakes[i] {
			t.Fatalf("DMA wake %d differs: reference %+v, idle-skipping %+v",
				i, ref.wakes[i], fast.wakes[i])
		}
	}
	if len(ref.cmds) == 0 || len(ref.injs) == 0 || len(ref.grants) == 0 || len(ref.credits) == 0 {
		t.Fatal("empty traces; the system did not run")
	}
	// The wake stream must exercise both re-arm causes: completion
	// deliveries and port credit returns.
	var deliveries, credits int
	for _, w := range ref.wakes {
		switch w.cause {
		case 'D':
			deliveries++
		case 'C':
			credits++
		default:
			t.Fatalf("unknown DMA wake cause %q", w.cause)
		}
	}
	if deliveries == 0 || credits == 0 {
		t.Fatalf("DMA wake trace causes D/C = %d/%d; the workload should exercise both re-arm edges",
			deliveries, credits)
	}
	// The stream must contain genuine credit returns on both sides of the
	// boundary: full-port pops and full-queue controller releases.
	var portCredits, mcCredits int
	for _, c := range ref.credits {
		if !c.wasFull {
			continue
		}
		if len(c.name) > 2 && c.name[:2] == "mc" {
			mcCredits++
		} else {
			portCredits++
		}
	}
	if portCredits == 0 || mcCredits == 0 {
		t.Fatalf("credit trace has %d port credits and %d controller credits; the workload should backpressure both",
			portCredits, mcCredits)
	}
}

// TestIdleSkipTraceEquivalence asserts that the idle-skipping kernel
// issues the exact same DRAM command stream, DMA injection stream,
// injection-wake stream and NoC arbitration grant stream — same
// transactions, same cycles, same order — as the cycle-stepped
// force-scan reference.
func TestIdleSkipTraceEquivalence(t *testing.T) {
	t.Parallel()
	const horizon = 60000
	for _, policy := range []sara.Policy{sara.QoS, sara.FRFCFS} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			t.Parallel()
			reproOnFailure(t, "TestIdleSkipTraceEquivalence/"+policy.String())
			ref := runTraced(policy, true, false, horizon)
			compareTraces(t, ref, runTraced(policy, false, false, horizon))
		})
	}
}

// TestIdleSkipTraceEquivalenceRefresh repeats the trace comparison with
// LPDDR4 refresh enabled: REF commands and forced-drain precharges must
// land on identical cycles in both kernel modes, and the stream must
// actually contain REFs (kind 'R', transaction id 0).
func TestIdleSkipTraceEquivalenceRefresh(t *testing.T) {
	t.Parallel()
	const horizon = 60000
	for _, policy := range []sara.Policy{sara.QoS, sara.FRFCFS} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			t.Parallel()
			reproOnFailure(t, "TestIdleSkipTraceEquivalenceRefresh/"+policy.String())
			ref := runTraced(policy, true, true, horizon)
			fast := runTraced(policy, false, true, horizon)
			compareTraces(t, ref, fast)
			refs := 0
			for _, c := range ref.cmds {
				if c.kind == 'R' {
					if c.id != 0 {
						t.Fatalf("REF carried transaction id %d", c.id)
					}
					refs++
				}
			}
			if refs == 0 {
				t.Fatal("refresh-enabled trace contains no REF commands")
			}
		})
	}
}

// TestIdleSkipStallAccounting expands the routers' batched stall events
// into per-cycle stall sets and compares them against the cycle-stepped
// reference: deferred accrual may land later, but every stalled cycle
// must be attributed to the same cycle in both modes.
func TestIdleSkipStallAccounting(t *testing.T) {
	reproOnFailure(t, "TestIdleSkipStallAccounting")
	type ev struct {
		now      sim.Cycle
		n        uint64
		backfill bool
	}
	run := func(skip bool) map[string][]ev {
		out := map[string][]ev{}
		sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS)))
		sys.Probe(sara.Probes{Stall: func(name string, now sim.Cycle, n uint64, backfill bool) {
			out[name] = append(out[name], ev{now, n, backfill})
		}})
		sys.Kernel().SetIdleSkip(skip)
		sys.RunFrames(2)
		return out
	}
	expand := func(evs []ev) map[sim.Cycle]bool {
		set := map[sim.Cycle]bool{}
		for _, e := range evs {
			if !e.backfill {
				set[e.now] = true
				continue
			}
			for c := e.now - sim.Cycle(e.n); c < e.now; c++ {
				set[c] = true
			}
		}
		return set
	}
	ref := run(false)
	fast := run(true)
	for name := range ref {
		rs, fs := expand(ref[name]), expand(fast[name])
		if len(rs) == 0 {
			t.Fatalf("router %s recorded no stalls; the workload should backpressure", name)
		}
		for c := range rs {
			if !fs[c] {
				t.Errorf("router %s: reference stalls at cycle %d, idle-skipping does not", name, c)
			}
		}
		for c := range fs {
			if !rs[c] {
				t.Errorf("router %s: idle-skipping stalls at cycle %d, reference does not", name, c)
			}
		}
	}
}
