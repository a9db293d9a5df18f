// Package txn defines the memory transaction model shared by the DMA
// engines, the on-chip network and the memory controller: transaction
// kinds, 3-bit priority levels, memory-controller queue classes and the
// transaction record itself with its lifecycle timestamps.
package txn

import (
	"fmt"

	"sara/internal/sim"
)

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read moves data from DRAM to the requesting DMA.
	Read Kind = iota
	// Write moves data from the requesting DMA to DRAM.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Priority is a relative urgency level carried by every transaction.
// SARA quantizes priorities into 2^k levels; the paper (and this library's
// default) uses k = 3, i.e. levels 0..7 where 0 means "healthy, lowest
// urgency" and 7 means "far below target performance, most urgent".
type Priority uint8

const (
	// MinPriority is the lowest urgency (core comfortably above target).
	MinPriority Priority = 0
	// MaxPriority is the highest urgency expressible with 3 bits.
	MaxPriority Priority = 7
	// Levels is the number of distinct priority levels (2^3).
	Levels = 8
)

// Class identifies the memory-controller transaction queue a transaction is
// routed to. The evaluated MPSoC dedicates one queue each to the CPU, the
// GPU and the DSP, one to all media cores and one to all system cores
// (Table 1: five transaction queues).
type Class uint8

const (
	// ClassCPU is the general-purpose CPU cluster queue.
	ClassCPU Class = iota
	// ClassGPU is the GPU queue.
	ClassGPU
	// ClassDSP is the latency-sensitive DSP queue.
	ClassDSP
	// ClassMedia aggregates media cores (camera, display, codec, ...).
	ClassMedia
	// ClassSystem aggregates system cores (GPS, WiFi, USB, modem, audio).
	ClassSystem
	// NumClasses is the number of memory-controller queues.
	NumClasses = 5
)

var classNames = [NumClasses]string{"cpu", "gpu", "dsp", "media", "system"}

// String returns the queue-class name used in traces and reports.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Addr is a physical byte address.
type Addr uint64

// Transaction is one memory request travelling from a DMA through the NoC
// into the memory controller and DRAM. Transactions are allocated by the
// issuing DMA and mutated in place as they move through the system; the
// simulator is single-threaded so no synchronization is needed.
type Transaction struct {
	// ID is unique per simulation run (monotonically increasing issue order).
	ID uint64
	// Kind is Read or Write.
	Kind Kind
	// Addr is the first byte touched.
	Addr Addr
	// Size is the transfer length in bytes. The DRAM model serves one
	// burst per transaction, so DMAs split larger buffers into
	// burst-sized transactions.
	Size uint32
	// Priority is the urgency stamped by the source DMA at issue time
	// under SARA; fixed-function baselines leave it at the default.
	Priority Priority
	// Urgent marks transactions from a media core that is behind its
	// reference frame progress. Only the frame-rate-based QoS baseline
	// policy consults it.
	Urgent bool
	// Source identifies the issuing DMA (index into the system DMA table).
	Source int
	// Class selects the memory-controller queue.
	Class Class

	// Issue is the cycle the DMA injected the transaction into the NoC.
	Issue sim.Cycle
	// Enqueue is the cycle the transaction entered an MC queue.
	Enqueue sim.Cycle
	// Complete is the cycle the response reached the DMA (reads) or the
	// write was accepted by DRAM and acknowledged.
	Complete sim.Cycle

	// RowPath is memory-controller scratch: it records whether the
	// transaction needed an activate or a precharge before its CAS, for
	// the row-locality statistics. Living on the transaction keeps the
	// controller's hot path free of map lookups.
	RowPath uint8
}

// Pool recycles Transactions so the steady-state inject/complete path
// allocates nothing. The simulator is single-threaded, so a plain
// free-list suffices (no sync.Pool locking or per-P sharding).
//
// Get does not zero the transaction; the issuing DMA overwrites every
// field. Put must only be called once the transaction has fully left the
// system (after the completion observers ran).
type Pool struct {
	free []*Transaction
}

// Get returns a recycled transaction, or a fresh one if the pool is empty.
//
//sara:hotpath
func (p *Pool) Get() *Transaction {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	return new(Transaction) //sara:alloc-ok pool warm-up; steady state recycles (0 allocs/op bench gate)
}

// Put returns t to the pool for reuse.
//
//sara:hotpath
func (p *Pool) Put(t *Transaction) {
	p.free = append(p.free, t) //sara:alloc-ok free-list growth is bounded by peak in-flight transactions
}

// Latency reports the end-to-end cycles from NoC injection to completion.
// It is only meaningful after the transaction completed.
//
//sara:hotpath
func (t *Transaction) Latency() sim.Cycle {
	return t.Complete - t.Issue
}

// String formats the transaction for debug traces.
func (t *Transaction) String() string {
	return fmt.Sprintf("txn %d %s addr=%#x size=%d prio=%d class=%s src=%d",
		t.ID, t.Kind, uint64(t.Addr), t.Size, t.Priority, t.Class, t.Source)
}
