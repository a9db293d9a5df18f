package sara_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sara"
	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/stats"
)

// pinnedOutputs is everything a pinned digest covers — the same fields,
// in the same order, as the benchmark's golden digest: per-channel DRAM
// counters, controller stats, router forwarded/stall counts, engine
// stats and every NPI series. Skipped-cycle counts are scheduler
// bookkeeping and stay out.
type pinnedOutputs struct {
	DRAM        []dram.ChannelStats
	Controllers []memctrl.Stats
	Routers     [][2]uint64 // forwarded, stalls
	Engines     []dma.Stats
	NPI         []*stats.Series
}

// digestOutputs hashes sys's simulated outputs (the JSON encoding is
// deterministic: struct fields keep their order).
func digestOutputs(t *testing.T, sys *sara.System) string {
	t.Helper()
	out := pinnedOutputs{DRAM: sys.DRAMStats().Channels}
	for _, c := range sys.Controllers() {
		out.Controllers = append(out.Controllers, c.Stats())
	}
	for _, r := range sys.Routers() {
		out.Routers = append(out.Routers, [2]uint64{r.Forwarded(), r.Stalls()})
	}
	for _, u := range sys.Units() {
		out.Engines = append(out.Engines, u.Engine.Stats())
		out.NPI = append(out.NPI, u.Series)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("encode outputs: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// TestBuildOutputsPinned pins the simulated outputs of the serial and
// the domain-parallel builders to digests recorded before the builders
// were unified. The equivalence suites compare kernel modes with each
// other, so a change that shifts every mode the same way passes them;
// this test does not. A deliberate behaviour change updates the digests.
func TestBuildOutputsPinned(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *sara.System
		frames int
		want   string
	}{
		{"serial/camcorder-a-qos", func() *sara.System {
			return sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS)))
		}, 2, "e18210aa2bc9835805ee7b08"},
		{"serial/saturated-2x", func() *sara.System {
			return sara.Build(sara.ScaledSaturated(2))
		}, 1, "0548bd8e515fa94fe7a6325d"},
		{"domains/saturated-2x-w2", func() *sara.System {
			return core.BuildParallel(sara.ScaledSaturated(2), 2)
		}, 1, "755f72735cffc0122111039c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build()
			sys.RunFrames(tc.frames)
			if got := digestOutputs(t, sys); got != tc.want {
				t.Fatalf("outputs digest %s, want %s", got, tc.want)
			}
		})
	}
}
