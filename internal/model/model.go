// Package model implements the formal system model of DReAMSim
// (paper §IV-A): reconfigurable nodes (Eq. 1), processor
// configurations (Eq. 2), application tasks (Eq. 3), and the area
// accounting rule (Eq. 4), together with the node-mutation methods of
// the paper's Node class (§IV-C): SendBitstream, MakeNodeBlank,
// MakeNodePartiallyBlank, AddTaskToNode, RemoveTaskFromNode.
package model

import "fmt"

// Area measures reconfigurable fabric in abstract "area units" (the
// paper suggests area slices). Signed 64-bit matches the paper's
// `long int` fields and lets invariant checks detect underflow.
type Area = int64

// NodeState is the coarse status of a node (paper Eq. 1 `state`).
type NodeState int

const (
	// StateBlank: no configurations resident (a "blank node", §V).
	StateBlank NodeState = iota
	// StateIdle: at least one configuration resident, no running task.
	StateIdle
	// StateBusy: at least one task running.
	StateBusy
	// StateDown: the node crashed and has not recovered yet; it holds
	// no configurations and no placement search may select it.
	StateDown
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case StateBlank:
		return "blank"
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// CapBits assigns one bit per capability name, in first-seen order —
// the dense encoding the indexed placement search uses for O(1)
// subset tests over node caps and configuration RequiredCaps. It
// returns false when the name space exceeds 64 capabilities (callers
// then fall back to string subset tests).
func CapBits(capLists ...[]string) (map[string]uint64, bool) {
	bits := make(map[string]uint64)
	next := uint(0)
	for _, caps := range capLists {
		for _, c := range caps {
			if _, ok := bits[c]; ok {
				continue
			}
			if next >= 64 {
				return nil, false
			}
			bits[c] = 1 << next
			next++
		}
	}
	return bits, true
}

// CapMaskOf folds a capability list into its bitmask under the given
// assignment. Names absent from the assignment report false —
// the mask cannot represent them.
func CapMaskOf(bits map[string]uint64, caps []string) (uint64, bool) {
	var mask uint64
	for _, c := range caps {
		b, ok := bits[c]
		if !ok {
			return 0, false
		}
		mask |= b
	}
	return mask, true
}

// TaskStatus tracks a task through its lifecycle. It is a byte so it
// packs beside Task's other small fields.
type TaskStatus uint8

const (
	TaskCreated   TaskStatus = iota // generated, not yet scheduled
	TaskSuspended                   // parked in the suspension queue
	TaskRunning                     // executing on a node
	TaskCompleted                   // finished successfully
	TaskDiscarded                   // dropped: no feasible placement
	TaskRetrying                    // displaced by a node crash, awaiting re-dispatch
	TaskLost                        // displaced by faults until the retry budget ran out
)

// String implements fmt.Stringer.
func (s TaskStatus) String() string {
	switch s {
	case TaskCreated:
		return "created"
	case TaskSuspended:
		return "suspended"
	case TaskRunning:
		return "running"
	case TaskCompleted:
		return "completed"
	case TaskDiscarded:
		return "discarded"
	case TaskRetrying:
		return "retrying"
	case TaskLost:
		return "lost"
	default:
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
}
