package detect

import (
	"xentry/internal/cpu"
	"xentry/internal/hv"
	"xentry/internal/ml"
)

// Shim cost model in cycles (one cycle per simulated instruction). The
// paper's implementation programs four counters and snapshots the exit
// reason at every interception, and reads them back plus walks the tree
// at every VM entry; these constants price that work. Detectors charge
// their own classification work onto the event with Event.AddCost.
const (
	// ShimExitCost is charged when a VM exit is intercepted with
	// signature collection armed: four WRMSRs to program the counters
	// (~100 cycles each on the paper's Xeon) plus reason capture.
	ShimExitCost = 400
	// ShimEntryCost is charged at VM entry: four RDMSRs plus bookkeeping.
	ShimEntryCost = 250
	// CompareCost is charged per comparison a detector performs while
	// classifying (tree-node visits, range checks, invariant probes).
	CompareCost = 2
)

// Kind tags the point in the monitored execution an Event describes.
type Kind uint8

// Event kinds, in the order the sentry emits them around one activation.
const (
	// KindNone: zero value, no event.
	KindNone Kind = iota
	// KindExit: a VM exit was intercepted; the handler has not run yet.
	KindExit
	// KindException: the handler stopped on a surfacing hardware
	// exception or a BUG/panic halt.
	KindException
	// KindAssertion: a compiled-in software assertion fired.
	KindAssertion
	// KindWatchdog: the execution exhausted the watchdog budget (the
	// NMI watchdog would have fired on real hardware).
	KindWatchdog
	// KindVMEntry: the handler completed and the CPU is about to
	// re-enter the guest.
	KindVMEntry
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindExit:
		return "exit"
	case KindException:
		return "exception"
	case KindAssertion:
		return "assertion"
	case KindWatchdog:
		return "watchdog"
	case KindVMEntry:
		return "vm-entry"
	}
	return "kind(?)"
}

// Event is one typed observation on the spine. The sentry owns a single
// reusable Event per machine and passes it by pointer, so dispatching to
// any number of detectors allocates nothing; detectors must not retain
// the pointer past the callback.
type Event struct {
	// Kind is the observation point.
	Kind Kind
	// Activation is the sentry's activation sequence number for this
	// execution (monotonic across the machine's lifetime).
	Activation int
	// Reason and Dom identify the VM exit being handled.
	Reason hv.ExitReason
	Dom    int
	// Steps is the instruction count the handler retired before this
	// event (0 on KindExit, the final count on terminal kinds).
	Steps uint64
	// Exc is the surfacing exception on KindException (nil for a halt).
	Exc *cpu.Exception
	// Halt reports a BUG/panic halt on KindException.
	Halt bool
	// AssertPC is the failing assertion's program counter on
	// KindAssertion.
	AssertPC uint64
	// Signature is the five-feature counter signature on KindVMEntry,
	// valid when HasSignature (collection armed via NeedsSignature).
	Signature    [ml.NumFeatures]uint64
	HasSignature bool
	// HV exposes the hypervisor for state probes (invariant checkers).
	// Detectors must treat it as read-only; mutating it would desync
	// the machine from its deterministic replay.
	HV *hv.Hypervisor

	cost uint64
}

// Begin starts the event over as an activation's KindExit observation:
// every field zero but the four given. It resets the event in place,
// where assigning an Event literal through the pointer would build one on
// the stack and copy it in, once per activation.
func (e *Event) Begin(activation int, reason hv.ExitReason, dom int, h *hv.Hypervisor) {
	e.Kind, e.Activation, e.Reason, e.Dom = KindExit, activation, reason, dom
	e.Steps, e.Exc, e.Halt, e.AssertPC = 0, nil, false, 0
	e.Signature, e.HasSignature = [ml.NumFeatures]uint64{}, false
	e.HV, e.cost = h, 0
}

// AddCost charges detection work (in cycles) to the activation; the
// sentry folds it into the outcome's shim cost.
func (e *Event) AddCost(cycles uint64) { e.cost += cycles }

// Cost returns the cycles charged so far.
func (e *Event) Cost() uint64 { return e.cost }
