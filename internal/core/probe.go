package core

import (
	"sara/internal/dma"
	"sara/internal/memctrl"
	"sara/internal/noc"
)

// Probes is a System's set of trace-edge observers: the NoC
// stall/grant/credit/sleep edges of every router, the DMA injection and
// injection-wake edges of every engine, and the command edge of every
// memory controller. Nil fields observe nothing.
type Probes struct {
	Stall   noc.StallFn
	Grant   noc.GrantFn
	Credit  noc.CreditFn
	Sleep   noc.SleepFn
	Inject  dma.InjectFn
	Wake    dma.WakeFn
	Command memctrl.TraceFn
}

// Probe installs p on this System's trace edges: each field goes straight
// into the matching nil-checked field of every router, engine and
// controller, so an unset field keeps its edge on the zero-cost disabled
// path. A System takes one subscriber; Probe panics on a second call. The
// edges belong to this System alone, so concurrent Systems never see each
// other's events. Subscribe only before running the System.
func (s *System) Probe(p Probes) {
	if s.probed {
		panic("core: Probe called twice on one System")
	}
	s.probed = true
	rt := noc.Trace{Stall: p.Stall, Grant: p.Grant, Credit: p.Credit, Sleep: p.Sleep}
	for _, r := range s.Routers() {
		r.SetTrace(rt)
	}
	et := dma.Trace{Inject: p.Inject, Wake: p.Wake}
	for _, u := range s.units {
		u.Engine.SetTrace(et)
	}
	for _, c := range s.ctrls {
		c.SetTrace(p.Command)
	}
}
