package sara_test

import (
	"sort"
	"testing"
	"testing/quick"

	"sara"
	"sara/internal/sim"
)

// sleepWindow is one router dormancy claim: no grant occurred in [from, until).
type sleepWindow struct {
	from, until sim.Cycle
}

// TestNoMissedGrantWindows is the safety property behind the event-driven
// arbiter, as a testing/quick property over randomized configurations:
// whenever a router was asleep for cycles [a, b) — its scan did not run,
// because the dormancy window or kernel-level skipping covered the
// stretch — replaying the same configuration as the stepped reference
// (the kernel's SetReference mode) must produce zero grants for that
// router anywhere in [a, b). A grant inside a sleep window is exactly the missed-grant
// bug a wrong NextActivity answer or a missing wake re-arm would cause,
// which is why the reference replay ticks every router every cycle and
// consults neither.
func TestNoMissedGrantWindows(t *testing.T) {
	t.Parallel()
	reproOnFailure(t, "TestNoMissedGrantWindows")
	const horizon = sara.Cycle(25000)
	prop := func(seed uint64) bool {
		// This property replays the serial kernel's modes (the stepped
		// reference needs sys.Kernel(), nil on domain-parallel builds);
		// the fuzz pool's parallel differential covers the domain kernel.
		cfg, desc, _ := fuzzConfig(seed)

		// Event-driven run: record every sleep window and every grant.
		windows := map[string][]sleepWindow{}
		var fastGrants []tracedGrant
		fastSys := sara.Build(cfg)
		fastSys.Probe(sara.Probes{
			Sleep: func(name string, from, until sim.Cycle) {
				windows[name] = append(windows[name], sleepWindow{from, until})
			},
			Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
				fastGrants = append(fastGrants, tracedGrant{name, now, port, out, id})
			},
		})
		fastSys.Run(horizon)
		// Close each router's trailing window: a router that went dormant
		// and never scanned again before the horizon — the blocked-on-
		// credit endgame — must have that stretch checked too.
		for _, r := range fastSys.Routers() {
			r.FlushSleep(sim.Cycle(horizon))
		}

		// Stepped force-scan replay: the per-cycle reference grant stream.
		// The DMA engines and controllers are ticked every cycle too, and
		// the controllers rescan instead of reading their bank buckets, so
		// a wrong hint anywhere upstream of a router shifts the replay's
		// grants into a claimed window.
		var refGrants []tracedGrant
		refSys := sara.Build(cfg)
		refSys.Probe(sara.Probes{Grant: func(name string, now sim.Cycle, port, out int, id uint64) {
			refGrants = append(refGrants, tracedGrant{name, now, port, out, id})
		}})
		refSys.Kernel().SetReference(true)
		refSys.Run(horizon)

		// Windows are emitted in scan order, hence sorted by from.
		inWindow := func(ws []sleepWindow, c sim.Cycle) bool {
			i := sort.Search(len(ws), func(i int) bool { return ws[i].from > c })
			return i > 0 && c < ws[i-1].until
		}
		ok := true
		for _, g := range refGrants {
			if inWindow(windows[g.router], g.now) {
				t.Errorf("seed %#x (%s): stepped replay grants txn %d at router %s cycle %d inside a sleep window",
					seed, desc, g.id, g.router, g.now)
				ok = false
				break
			}
		}
		// Self-consistency: the event-driven run cannot have granted
		// inside its own claimed windows (a hook-ordering bug would).
		for _, g := range fastGrants {
			if inWindow(windows[g.router], g.now) {
				t.Errorf("seed %#x (%s): event-driven run granted txn %d at router %s cycle %d inside its own sleep window",
					seed, desc, g.id, g.router, g.now)
				ok = false
				break
			}
		}
		// The property must not pass vacuously: the run has to sleep and
		// the reference has to grant.
		if len(windows) == 0 || len(refGrants) == 0 {
			t.Errorf("seed %#x (%s): vacuous run — %d routers slept, %d reference grants",
				seed, desc, len(windows), len(refGrants))
			ok = false
		}
		return ok
	}
	cfgQuick := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfgQuick.MaxCount = 4
	}
	cfgQuick.MaxCount *= fuzzScale()
	if err := quick.Check(prop, cfgQuick); err != nil {
		t.Fatal(err)
	}
}
