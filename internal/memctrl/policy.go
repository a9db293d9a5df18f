package memctrl

import (
	"fmt"

	"sara/internal/txn"
)

// PolicyKind selects the arbitration policy used by the memory controller
// (and, through the SoC assembly, by the on-chip network arbiters).
type PolicyKind uint8

const (
	// FCFS serves transactions strictly in arrival order.
	FCFS PolicyKind = iota
	// RR serves the five class queues in round-robin order, oldest first
	// within a queue.
	RR
	// FRFCFS is first-ready FCFS: row-buffer hits first, then oldest.
	// It maximizes DRAM bandwidth with no QoS awareness.
	FRFCFS
	// FrameRate is the frame-rate-based QoS baseline [Jeong et al., DAC'12]:
	// media transactions flagged urgent (behind reference frame progress)
	// win; everything else is best-effort FCFS.
	FrameRate
	// QoS is the paper's Policy 1: higher priority wins, equal priorities
	// resolve by round-robin across queues.
	QoS
	// QoSRB is the paper's Policy 2: like QoS, but a row-buffer hit beats a
	// non-hit whenever both priorities are below the delta threshold or
	// the priorities are equal.
	QoSRB
	numPolicies
)

var policyNames = [numPolicies]string{"fcfs", "rr", "frfcfs", "framerate", "qos", "qos-rb"}

// String returns the short policy name used in reports.
func (p PolicyKind) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy converts a name produced by String back into a PolicyKind.
func ParsePolicy(name string) (PolicyKind, error) {
	for i, n := range policyNames {
		if n == name {
			return PolicyKind(i), nil
		}
	}
	return 0, fmt.Errorf("memctrl: unknown policy %q", name)
}

// AllPolicies lists every policy in evaluation order.
func AllPolicies() []PolicyKind {
	return []PolicyKind{FCFS, RR, FRFCFS, FrameRate, QoS, QoSRB}
}

// candidate is a queued transaction that can issue a DRAM command this
// cycle, with the attributes the comparators need.
type candidate struct {
	e      *entry // in the controller's slot table
	s      int32  // e's slot
	rowHit bool   // a CAS would hit the open row (ignoring timing)
}

// rrDist measures how far class is from the round-robin pointer rr; the
// class whose turn is next has distance 0.
func rrDist(class, rr txn.Class) int {
	return (int(class) - int(rr) + txn.NumClasses) % txn.NumClasses
}

// better reports whether a should be served before b under policy p. rr
// is the controller's round-robin pointer and delta Policy 2's threshold.
func (p PolicyKind) better(a, b candidate, rr txn.Class, delta txn.Priority) bool {
	switch p {
	case FCFS:
		return olderFirst(a, b)

	case RR:
		da, db := rrDist(a.e.t.Class, rr), rrDist(b.e.t.Class, rr)
		if da != db {
			return da < db
		}
		return olderFirst(a, b)

	case FRFCFS:
		if a.rowHit != b.rowHit {
			return a.rowHit
		}
		return olderFirst(a, b)

	case FrameRate:
		if a.e.t.Urgent != b.e.t.Urgent {
			return a.e.t.Urgent
		}
		return olderFirst(a, b)

	case QoS:
		return qosBetter(a, b, rr)

	case QoSRB:
		pa, pb := a.e.t.Priority, b.e.t.Priority
		if a.rowHit != b.rowHit {
			// Policy 2: the row hit wins when both priorities are under
			// the threshold, or when priorities tie; otherwise fall back
			// to priority-based round-robin (Policy 1).
			if (pa < delta && pb < delta) || pa == pb {
				return a.rowHit
			}
			return qosBetter(a, b, rr)
		}
		return qosBetter(a, b, rr)

	default:
		panic("memctrl: unknown policy")
	}
}

// qosBetter implements Policy 1: priority descending, then round-robin
// across queues, then age.
func qosBetter(a, b candidate, rr txn.Class) bool {
	pa, pb := a.e.t.Priority, b.e.t.Priority
	if pa != pb {
		return pa > pb
	}
	da, db := rrDist(a.e.t.Class, rr), rrDist(b.e.t.Class, rr)
	if da != db {
		return da < db
	}
	return olderFirst(a, b)
}

// olderFirst orders by memory-controller arrival, with the globally unique
// transaction ID as the deterministic tiebreak.
func olderFirst(a, b candidate) bool {
	if a.e.t.Enqueue != b.e.t.Enqueue {
		return a.e.t.Enqueue < b.e.t.Enqueue
	}
	return a.e.t.ID < b.e.t.ID
}
