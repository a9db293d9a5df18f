package core

import (
	"sara/internal/dma"
	"sara/internal/memctrl"
	"sara/internal/noc"
	"sara/internal/sim"
)

// Probes is one subscriber's set of trace-edge observers for a System:
// the NoC stall/grant/credit/sleep edges of every router, the DMA
// injection and injection-wake edges of every engine, and the command
// edge of every memory controller. Nil fields subscribe to nothing.
type Probes struct {
	Stall   noc.StallFn
	Grant   noc.GrantFn
	Credit  noc.CreditFn
	Sleep   noc.SleepFn
	Inject  dma.InjectFn
	Wake    dma.WakeFn
	Command memctrl.TraceFn
}

// Probe subscribes p to this System's trace edges and returns its detach
// function. Subscribers of one edge are called in subscription order;
// detach is idempotent and may run in any order. Each component holds one
// nil-checked field per edge: nil with no subscriber (the zero-cost
// disabled path), the sole subscriber itself, or a fan-out over a
// snapshot of the subscribers. The edges belong to this System alone, so
// concurrent Systems never see each other's events.
//
// Subscribe and detach only between runs, never while the System is
// running. On the domain-parallel kernel the probes run on the domain
// worker goroutines, so a probe shared across domains must synchronize.
func (s *System) Probe(p Probes) (detach func()) {
	slot := &p
	s.probes = append(s.probes, slot)
	s.rewireProbes()
	return func() {
		for i, q := range s.probes {
			if q == slot {
				s.probes = append(s.probes[:i], s.probes[i+1:]...)
				s.rewireProbes()
				return
			}
		}
	}
}

// rewireProbes rebuilds every component's probe fields from s.probes.
func (s *System) rewireProbes() {
	var (
		stall   []noc.StallFn
		grant   []noc.GrantFn
		credit  []noc.CreditFn
		sleep   []noc.SleepFn
		inject  []dma.InjectFn
		wake    []dma.WakeFn
		command []memctrl.TraceFn
	)
	for _, p := range s.probes {
		if p.Stall != nil {
			stall = append(stall, p.Stall)
		}
		if p.Grant != nil {
			grant = append(grant, p.Grant)
		}
		if p.Credit != nil {
			credit = append(credit, p.Credit)
		}
		if p.Sleep != nil {
			sleep = append(sleep, p.Sleep)
		}
		if p.Inject != nil {
			inject = append(inject, p.Inject)
		}
		if p.Wake != nil {
			wake = append(wake, p.Wake)
		}
		if p.Command != nil {
			command = append(command, p.Command)
		}
	}
	rt := noc.Trace{
		Stall: merge(stall, func(fs []noc.StallFn) noc.StallFn {
			return func(name string, now sim.Cycle, n uint64, backfill bool) {
				for _, f := range fs {
					f(name, now, n, backfill)
				}
			}
		}),
		Grant: merge(grant, func(fs []noc.GrantFn) noc.GrantFn {
			return func(name string, now sim.Cycle, port, out int, id uint64) {
				for _, f := range fs {
					f(name, now, port, out, id)
				}
			}
		}),
		Credit: merge(credit, func(fs []noc.CreditFn) noc.CreditFn {
			return func(name string, now sim.Cycle, port int, wasFull bool) {
				for _, f := range fs {
					f(name, now, port, wasFull)
				}
			}
		}),
		Sleep: merge(sleep, func(fs []noc.SleepFn) noc.SleepFn {
			return func(name string, from, until sim.Cycle) {
				for _, f := range fs {
					f(name, from, until)
				}
			}
		}),
	}
	et := dma.Trace{
		Inject: merge(inject, func(fs []dma.InjectFn) dma.InjectFn {
			return func(now sim.Cycle, source int, id uint64, addr uint64) {
				for _, f := range fs {
					f(now, source, id, addr)
				}
			}
		}),
		Wake: merge(wake, func(fs []dma.WakeFn) dma.WakeFn {
			return func(source int, at sim.Cycle, cause byte) {
				for _, f := range fs {
					f(source, at, cause)
				}
			}
		}),
	}
	ct := merge(command, func(fs []memctrl.TraceFn) memctrl.TraceFn {
		return func(ch int, now sim.Cycle, id uint64, kind byte) {
			for _, f := range fs {
				f(ch, now, id, kind)
			}
		}
	})
	for _, r := range s.Routers() {
		r.SetTrace(rt)
	}
	for _, u := range s.units {
		u.Engine.SetTrace(et)
	}
	for _, c := range s.ctrls {
		c.SetTrace(ct)
	}
}

// merge folds one edge's subscribers into the single function a component
// field holds: the zero value (nil) for none, the subscriber itself for
// one, fanout(fns) for several.
func merge[F any](fns []F, fanout func([]F) F) F {
	switch len(fns) {
	case 0:
		var zero F
		return zero
	case 1:
		return fns[0]
	}
	return fanout(fns)
}
