// Package memctrl implements the QoS-aware memory controller: five class
// transaction queues per channel (Table 1: 42 entries total), a
// command-level scheduler with per-bank reservations, starvation aging
// (Section 3.3, T = 10000 cycles) and the six arbitration policies the
// paper evaluates — FCFS, round-robin, FR-FCFS, the frame-rate-based QoS
// baseline, the priority-based QoS policy (Policy 1) and the priority-based
// row-buffer optimizing policy (Policy 2, threshold delta).
package memctrl

import (
	"fmt"

	"sara/internal/dram"
	"sara/internal/txn"
)

// entry is a queued transaction plus its decoded DRAM coordinate.
type entry struct {
	t   *txn.Transaction
	loc dram.Location
}

// classQueue is one of the five transaction queues: the slots (indices
// into the controller's slot table) of its entries, in arrival order.
type classQueue struct {
	class txn.Class
	cap   int
	slots []int32
}

func (q *classQueue) full() bool { return len(q.slots) >= q.cap }

// remove deletes slot s, preserving order.
func (q *classQueue) remove(s int32) {
	for i, qs := range q.slots {
		if qs == s {
			copy(q.slots[i:], q.slots[i+1:])
			q.slots = q.slots[:len(q.slots)-1]
			return
		}
	}
	panic(fmt.Sprintf("memctrl: remove of unqueued slot %d", s))
}

// QueueCaps is the per-class capacity split. The paper's controller has 42
// entries across 5 queues; DefaultQueueCaps apportions them.
type QueueCaps [txn.NumClasses]int

// DefaultQueueCaps returns the split used in the evaluation: CPU 8, GPU 8,
// DSP 6, media 12, system 8 (total 42).
func DefaultQueueCaps() QueueCaps {
	return QueueCaps{8, 8, 6, 12, 8}
}

// Total reports the summed capacity.
func (c QueueCaps) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}
