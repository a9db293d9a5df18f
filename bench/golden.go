package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"

	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/exp"
	"sara/internal/memctrl"
	"sara/internal/stats"
)

// goldenFile holds, per workload and simulation seed, the digest of the
// simulated outputs: of one round at the workload's default size for a
// single run, of one cell seed's runs for the sweep.
const goldenFile = "golden.json"

// systemOutputs is everything a single run's digest covers. Skipped and
// executed cycle counts are left out on purpose: a kernel change may
// move them without changing any simulated result.
type systemOutputs struct {
	DRAM        []dram.ChannelStats
	Controllers []memctrl.Stats
	Routers     [][2]uint64 // forwarded, stalls
	Engines     []dma.Stats
	NPI         []*stats.Series
}

func digestSystem(sys *core.System) string {
	out := systemOutputs{DRAM: sys.DRAMStats().Channels}
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
	return digest(out)
}

// digestRuns covers every PolicyRun of a sweep round except its analysis
// report, which only observes the run.
func digestRuns(runs []exp.PolicyRun) string {
	trimmed := make([]exp.PolicyRun, len(runs))
	for i, r := range runs {
		r.Analysis = nil
		trimmed[i] = r
	}
	return digest(trimmed)
}

// digest hashes v's JSON encoding, which is deterministic: struct fields
// keep their order and map keys are sorted.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // only unencodable types, a bug
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// golden maps workload name -> seed -> digest.
type golden map[string]map[string]string

func loadGolden(path string) (golden, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return golden{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g golden) lookup(workload string, seed uint64) (string, bool) {
	d, ok := g[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// updateGolden runs rounds of every workload at its default size, from
// seed 1, until every golden seed has a digest, and rewrites the golden
// file.
func updateGolden(path string) error {
	g := golden{}
	for _, w := range workloads {
		g[w.name] = map[string]string{}
		t := &tracer{t0: now()}
		for idx := 0; len(g[w.name]) < goldenSeeds; idx++ {
			res := runRound(w, t, idx, 1, w.size, "")
			if res.err != nil || res.failed > 0 {
				return fmt.Errorf("%s round %d: %d failed: %v", w.name, idx, res.failed, res.err)
			}
			for _, d := range res.digests {
				g[w.name][strconv.FormatUint(d.seed, 10)] = d.digest
				fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, d.seed, d.digest)
			}
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
