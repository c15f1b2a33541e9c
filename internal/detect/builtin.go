package detect

import (
	"fmt"

	"xentry/internal/cpu"
	"xentry/internal/ml"
)

// FatalException implements the paper's exception parsing: surfacing
// exceptions are fatal corruptions unless they belong to the legal
// classes already consumed by the hypervisor's fixup machinery (which
// never surface). Spurious vectors outside the architectural set are
// fatal too.
func FatalException(exc *cpu.Exception) bool {
	return exc != nil
}

// Runtime is the paper's Section III-A runtime detection: fatal
// hardware exceptions (including the watchdog NMI of a hung execution)
// and compiled-in software assertions.
type Runtime struct {
	Base
}

// Name implements Detector.
func (Runtime) Name() string { return "runtime" }

// OnException reports a surfacing exception or BUG/panic halt as a
// fatal system corruption. An exception's verdict carries no Detail: the
// exception itself is the explanation, kept in the execution's result
// (hv.Result.Exc) and formatted only when read (cpu.Exception.Error),
// because most campaign runs that end in one are never explained.
func (Runtime) OnException(ev *Event) Verdict {
	if ev.Halt {
		return Verdict{Technique: TechHWException, Detail: "BUG/panic halt"}
	}
	if FatalException(ev.Exc) {
		return Verdict{Technique: TechHWException}
	}
	return Verdict{}
}

// OnAssertion reports a fired software assertion. As with exceptions, the
// failed assertion's address stays in the execution's result
// (hv.Result.AssertPC) instead of being formatted into Detail.
func (Runtime) OnAssertion(*Event) Verdict {
	return Verdict{Technique: TechAssertion}
}

// OnWatchdog parses the hung execution's watchdog NMI (Xen's
// watchdog=1) like any other fatal hardware exception.
func (Runtime) OnWatchdog(*Event) Verdict {
	return Verdict{Technique: TechHWException, Detail: "NMI watchdog (budget exhausted)"}
}

// Transition is the paper's Section III-B VM transition detection: the
// five-feature counter signature collected across the execution is
// classified by the trained tree model at every VM entry.
type Transition struct {
	Base
	// Model returns the current classification tree (nil before
	// training). It is a provider rather than a field so the sentry's
	// SetModel keeps working mid-run without rebuilding the pipeline.
	Model func() *ml.Tree
}

// Name implements Detector.
func (*Transition) Name() string { return "vm-transition" }

// NeedsSignature arms signature collection.
func (*Transition) NeedsSignature() bool { return true }

// OnVMEntry classifies the execution's signature; an incorrect verdict
// is a detection. The per-node comparison cost is charged to the event.
func (d *Transition) OnVMEntry(ev *Event) Verdict {
	if !ev.HasSignature || d.Model == nil {
		return Verdict{}
	}
	model := d.Model()
	if model == nil {
		return Verdict{}
	}
	correct, comparisons := model.Classify(ev.Signature)
	ev.AddCost(uint64(comparisons) * CompareCost)
	if correct {
		return Verdict{}
	}
	return Verdict{Technique: TechVMTransition, Detail: "signature classified incorrect"}
}

// Watchdog claims hung executions as their own first-class technique.
// The default (paper) pipeline folds hangs into runtime detection's
// hw-exception band; enabling this detector instead (or in addition,
// with runtime detection off) makes watchdog hangs tally, serialize,
// and render as their own band.
type Watchdog struct {
	Base
}

// Name implements Detector.
func (Watchdog) Name() string { return "watchdog" }

// OnWatchdog claims the hang.
func (Watchdog) OnWatchdog(ev *Event) Verdict {
	return Verdict{
		Technique: TechWatchdog,
		Detail:    fmt.Sprintf("no VM entry within %d steps", ev.Steps),
	}
}

func init() {
	RegisterFactory("watchdog", func() Detector { return Watchdog{} })
}
