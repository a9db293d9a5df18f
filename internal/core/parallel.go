// Partitioned System construction: the per-channel topology, one
// domain per memory channel, exchanging cross-domain traffic through
// mailboxes at a fixed grid of conservative-lookahead epochs (in the
// style of Chandy and Misra's conservative simulation, 1979).
//
// # Topology
//
// Every System is built from domains, each owning a set of memory
// channels (their controllers) and a subset of the DMA roster. A
// domain's root router has one output per channel, routed by the
// address interleave. One domain owning every channel is the serial
// system: every root output feeds its channel's controller directly,
// giving the single-root Fig. 1 topology. BuildParallel instead gives
// every channel its own domain and assigns the DMAs round-robin per
// class group, so every domain carries a balanced mix of
// direct/media/system traffic. Only across domains is there an ingress
// hop: the output for a domain's own channel feeds a per-channel
// ingress router ("chanN"), and every other output is a crossLink — a
// bounded inter-domain mailbox ring. The chan router has one input port
// per source domain and is the single feeder of the memory controller,
// so local and remote traffic merge through ordinary deterministic NoC
// arbitration.
//
// Every System, serial or partitioned, runs on one sim.Kernel and one
// dram.DRAM: DRAM state is per channel, so one instance serves every
// controller. The partitioned topology gains no speed on one kernel
// (the README records the measurements); it is kept only because the
// repository benchmark pins its outputs.
//
// # Lookahead and the exchange
//
// The epoch length is noc.Params.CrossDomainLatency (link hop + the
// one-cycle injection stage of the receiving port), computed from the
// config — never hardcoded. A packet a domain grants at cycle t cannot
// become visible to another domain before t + lookahead, so the
// mailboxes are drained only at the grid cycles 0, L, 2L, ...: one
// periodic kernel event (System.exchange) that runs at a grid cycle
// before any ticker of that cycle. Between grid cycles a domain touches
// only its own state; every cross-domain effect goes through a ring or
// a credit counter.
//
// # Determinism
//
// The exchange walks receiving domains and source domains in index
// order and rings in FIFO order, so cross-domain packets enter ports —
// and response events enter the event heap — in an order that depends
// only on the simulation state. The per-channel topology is not
// cycle-identical to the one-domain serial system — the ingress hop
// exists only across domains and adds a stage to the request path — so
// the one-domain system remains the default and the reference.
//
// # Credits
//
// Cross-domain backpressure is credit-based like every other link:
// a crossLink starts with one credit per slot of its remote ingress
// port, spends one per accepted packet, and earns them back from the
// remote port's pops. Returned credits become visible at the next grid
// cycle (noc.Port.OnPop counts them on the remote side; the exchange
// banks them and wakes the sender's root router).
package core

import (
	"fmt"

	"sara/internal/memctrl"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// PartitionPlan describes how BuildParallel shards a config: one domain
// per memory channel, each unit assigned to exactly one domain, and the
// conservative lookahead between mailbox exchanges.
type PartitionPlan struct {
	// Domains is the domain count (the channel count).
	Domains int
	// Lookahead is the exchange period: the minimum latency of any
	// cross-domain interaction, derived from the NoC config.
	Lookahead sim.Cycle
	// UnitDomain maps each DMA spec index to its owning domain.
	UnitDomain []int
}

// Partition derives the domain partition for cfg, reporting ok=false
// when the topology cannot be sharded: fewer than two channels (nothing
// to split), no DMAs, or a response latency shorter than the lookahead
// (a completion could then be due at its owner before the next exchange
// could deliver it).
// Unpartitionable configs build as one domain: the serial system.
func Partition(cfg Config) (PartitionPlan, bool) {
	channels := cfg.DRAM.Geometry.Channels
	look := cfg.NoC.CrossDomainLatency()
	if channels < 2 || len(cfg.DMAs) == 0 || cfg.NoC.RespLatency < look {
		return PartitionPlan{}, false
	}
	plan := PartitionPlan{
		Domains:    channels,
		Lookahead:  look,
		UnitDomain: make([]int, len(cfg.DMAs)),
	}
	// Round-robin within each class group: every router tree groups
	// media and system cores behind aggregation routers, so spreading
	// each group evenly keeps every domain's tree the same shape.
	var perClass [3]int
	for i, spec := range cfg.DMAs {
		g := 0
		switch spec.Class {
		case txn.ClassMedia:
			g = 1
		case txn.ClassSystem:
			g = 2
		}
		plan.UnitDomain[i] = perClass[g] % channels
		perClass[g]++
	}
	return plan, true
}

// serialPlan is the one-domain partition: every channel and every DMA
// in domain 0.
func serialPlan(cfg Config) PartitionPlan {
	return PartitionPlan{Domains: 1, UnitDomain: make([]int, len(cfg.DMAs))}
}

// BuildParallel assembles the partitioned System, one domain per
// channel, on the one kernel every System runs on. workers is ignored:
// the domains no longer run on worker goroutines. The function goes,
// with the benchmark workload that calls it, when ROADMAP item 1
// deletes the partitioned topology. An unpartitionable cfg builds the
// serial System, as Build does.
func BuildParallel(cfg Config, workers int) *System {
	plan, ok := Partition(cfg)
	if !ok {
		plan = serialPlan(cfg)
	}
	return build(cfg, plan)
}

// xferEntry is one mailbox slot: a transaction and the cycle it becomes
// visible on the receiving side.
type xferEntry struct {
	t   *txn.Transaction
	due sim.Cycle
}

// xferRing is a pre-sized mailbox: written by the owning domain between
// grid cycles and fully drained by the exchange at the next one, so it
// never allocates after construction.
type xferRing struct {
	buf []xferEntry
	n   int
}

//sara:hotpath
func (r *xferRing) push(t *txn.Transaction, due sim.Cycle) {
	if r.n == len(r.buf) {
		panic(fmt.Sprintf("core: mailbox overflow (%d slots)", len(r.buf))) //sara:alloc-ok invariant-violation panic path
	}
	r.buf[r.n] = xferEntry{t: t, due: due}
	r.n++
}

// crossLink is the egress half of a cross-domain request link: a
// noc.Sink the sending domain's root router grants into. Accept
// stamps the packet with the link latency and files it in the mailbox;
// the exchange pushes it into the receiving domain's channel-ingress
// port at the next grid cycle. credits mirrors the free slots of that
// remote port.
type crossLink struct {
	ring    xferRing
	credits int
	lat     sim.Cycle // CrossDomainLatency: hop + injection stage
	waker   noc.Waker // the sending root router, wired via OnCredit
}

//sara:hotpath
func (c *crossLink) CanAccept(*txn.Transaction) bool { return c.credits > 0 }

//sara:hotpath
func (c *crossLink) Accept(t *txn.Transaction, now sim.Cycle) {
	c.credits--
	c.ring.push(t, now+c.lat)
}

// OnCredit implements noc.Sink; credits return through the exchange,
// which wakes w.
func (c *crossLink) OnCredit(w noc.Waker) {
	if c.waker != nil {
		panic("core: cross-domain link already credit-wired")
	}
	c.waker = w
}

// domain is one shard of a System: its owned controllers, router tree,
// transaction pool and ID space, plus — with several domains — the
// channel ingress router and the outbound mailbox state the exchange
// drains.
type domain struct {
	idx   int
	ctrls []*memctrl.Controller // the owned channels', in channel order
	units []*Unit               // this domain's subset, in global spec order

	mediaRouter *noc.Router
	sysRouter   *noc.Router
	rootRouter  *noc.Router
	chanRouter  *noc.Router
	inPort      []*noc.Port // chanRouter ports, indexed by source domain

	pool   txn.Pool
	nextID uint64

	// Outbound state, indexed by destination domain (self entries idle;
	// all nil with one domain): cross[c] carries requests this domain's
	// root grants toward channel c; respOut[o] carries completions owned
	// by domain o; credFor[o] counts pops of this domain's ingress port
	// fed by o — credits owed back to o, banked at the next exchange.
	cross   []*crossLink
	respOut []xferRing
	credFor []uint32
}

// routers lists the domain's routers in tick order.
func (d *domain) routers() []*noc.Router {
	var out []*noc.Router
	for _, r := range []*noc.Router{d.mediaRouter, d.sysRouter, d.rootRouter, d.chanRouter} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// exchange drains every mailbox at grid cycle now, receiving domain by
// receiving domain in index order: requests into the channel-ingress
// ports, completions into the event heap, returned credits into the
// egress links. Source domains are walked in index order and rings in
// FIFO order, so the outcome depends only on simulation state. The
// completions it files get higher event sequence numbers than every
// event already queued, so a completion due at now runs after them.
//
//sara:hotpath
func (s *System) exchange(now sim.Cycle) {
	for _, dom := range s.domains {
		for a, src := range s.domains {
			if a == dom.idx {
				continue
			}
			if cl := src.cross[dom.idx]; cl != nil {
				for i := 0; i < cl.ring.n; i++ {
					e := cl.ring.buf[i]
					dom.inPort[a].Push(e.t, e.due, e.due)
				}
				cl.ring.n = 0
			}
		}
		for _, src := range s.domains {
			if src == dom {
				continue
			}
			ring := &src.respOut[dom.idx]
			for i := 0; i < ring.n; i++ {
				e := ring.buf[i]
				s.kernel.AtArg(e.due, s.deliver, e.t) //sara:alloc-ok pointer payload into the event heap; the backing array is amortized and pre-warmed after the first frame
			}
			ring.n = 0
		}
		for a, rem := range s.domains {
			if a == dom.idx {
				continue
			}
			if n := rem.credFor[dom.idx]; n != 0 {
				rem.credFor[dom.idx] = 0
				cl := dom.cross[a]
				cl.credits += int(n)
				cl.waker.Wake(now)
			}
		}
	}
}
