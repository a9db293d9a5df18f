package exp

import (
	"flag"
	"strings"
	"testing"
)

// TestReproRoundTrips parses the Repro line of every figure cell, under
// each option variant, back through BindFlags: the cell and options the
// command line gives must key the same journal entry as the originals.
func TestReproRoundTrips(t *testing.T) {
	t.Parallel()
	variants := []struct {
		name string
		set  func(*Cell, *Options)
	}{
		{"defaults", func(*Cell, *Options) {}},
		{"refresh", func(_ *Cell, o *Options) { o.Refresh = true }},
		{"scale 512", func(_ *Cell, o *Options) { o.ScaleDiv = 512 }},
		{"warmup 1", func(_ *Cell, o *Options) { o.WarmupFrames = 1 }},
		{"measure 2", func(_ *Cell, o *Options) { o.MeasureFrames = 2 }},
		{"seed 3", func(_ *Cell, o *Options) { o.Seed = 3 }},
		{"saturated", func(c *Cell, _ *Options) { c.Saturated = true }},
		{"soc-scale 2", func(c *Cell, _ *Options) { c.Scale = 2 }},
		{"freq 1500", func(c *Cell, _ *Options) { c.DataRateMTps = 1500 }},
	}
	for fig := 5; fig <= 9; fig++ {
		for _, c := range FigureCells(fig) {
			for _, v := range variants {
				cell, opt := c, Options{}
				v.set(&cell, &opt)
				line := cell.Repro(opt)
				args := strings.Fields(line)
				if len(args) < 5 || strings.Join(args[:5], " ") != "go run ./cmd/sarasweep -sweep cell" {
					t.Fatalf("fig %d %v, %s: Repro %q is not a cell sweep", fig, c, v.name, line)
				}
				fs := flag.NewFlagSet("sarasweep", flag.ContinueOnError)
				fs.String("sweep", "", "")
				f := BindFlags(fs, RunFlags|CellFlags)
				if err := fs.Parse(args[3:]); err != nil {
					t.Fatalf("fig %d %v, %s: %q does not parse: %v", fig, c, v.name, line, err)
				}
				if err := f.Check(RunFlags|CellFlags, "-sweep cell"); err != nil {
					t.Fatalf("fig %d %v, %s: %q is refused: %v", fig, c, v.name, line, err)
				}
				if got, want := f.Cell.Key(f.Opt), cell.Key(opt); got != want {
					t.Errorf("fig %d %v, %s: %q parses to\n  %s\nwant\n  %s",
						fig, c, v.name, line, f.Cell.Canonical(f.Opt), cell.Canonical(opt))
				}
			}
		}
	}
}
