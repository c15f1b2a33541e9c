package recovery

// The recovery engine (DESIGN.md §12). Where recovery.go prices a
// hypothetical recovery (the paper's Section VI cost model), the engine
// performs one: following ReHype ("Resilient Virtualized Systems Using
// ReHype"), a positive detection during an injected run triggers a
// microreboot of the hypervisor — private state is reinitialized via
// hv.Reinit while guest memory pages and vCPU guest-visible state survive —
// the interrupted activation is re-entered and run to completion under a
// watchdog, and the run's final state is classified against the golden
// reference. The strategy applied to each detection (microreboot,
// restore-and-reexecute per Xentry §VI, or none) comes from a policy table
// keyed on the detection technique and the trigger cause.

import (
	"fmt"
	"strings"

	"xentry/internal/cpu"
	"xentry/internal/detect"
	"xentry/internal/guest"
	"xentry/internal/hv"
)

// Strategy selects how the engine reacts to a positive detection.
type Strategy uint8

const (
	// StrategyNone: no recovery; the detection stands and the run fails as
	// it would have without the engine.
	StrategyNone Strategy = iota
	// StrategyMicroreboot: ReHype-style hypervisor microreboot — rebuild
	// hypervisor private state from scratch (hv.Reinit), preserve guest
	// memory and vCPU guest-visible state, re-enter the interrupted
	// activation.
	StrategyMicroreboot
	// StrategyRestore: Xentry Section VI restore-and-reexecute — roll the
	// whole machine memory back to the VM-exit snapshot and re-execute the
	// activation.
	StrategyRestore

	numStrategies
)

var strategyNames = [numStrategies]string{
	StrategyNone:        "none",
	StrategyMicroreboot: "microreboot",
	StrategyRestore:     "restore",
}

// String names the strategy ("none", "microreboot", "restore").
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// MarshalText serializes the strategy by name, so WAL records and reports
// stay readable and stable across releases.
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a strategy name. Unlike the open technique
// registry the strategy set is closed: an unknown name is an error, not an
// auto-registration.
func (s *Strategy) UnmarshalText(b []byte) error {
	for i, name := range strategyNames {
		if string(b) == name {
			*s = Strategy(i)
			return nil
		}
	}
	return fmt.Errorf("recovery: unknown strategy %q", string(b))
}

// ParseStrategy resolves a campaign flag value to a strategy. "", "off",
// and "none" all mean recovery off.
func ParseStrategy(name string) (Strategy, bool) {
	switch name {
	case "", "off", "none":
		return StrategyNone, true
	case "microreboot":
		return StrategyMicroreboot, true
	case "restore":
		return StrategyRestore, true
	}
	return StrategyNone, false
}

// StrategyNames lists the accepted -recover strategy names (the error
// message of the campaign flag and the coordinator's 400 response).
func StrategyNames() []string {
	return []string{"off", "none", "microreboot", "restore", "policy"}
}

// Cause classifies how a detection surfaced — the second key of the policy
// table. Technique says which detector claimed the fault; Cause says what
// machine-level event carried it, which is what decides whether hypervisor
// private state can still be trusted.
type Cause uint8

const (
	// CauseNone: no detection (also the wildcard in policy rules).
	CauseNone Cause = iota
	// CauseException: a fatal hardware exception ended the execution.
	CauseException
	// CauseAssertion: a software assertion failed.
	CauseAssertion
	// CauseWatchdog: the instruction budget expired (hung hypervisor).
	CauseWatchdog
	// CauseVMEntry: the detection fired at the VM-entry boundary (the
	// execution itself completed; transition-signature detections land
	// here).
	CauseVMEntry

	numCauses
)

var recoveryCauseNames = [numCauses]string{
	CauseNone:      "none",
	CauseException: "exception",
	CauseAssertion: "assertion",
	CauseWatchdog:  "watchdog",
	CauseVMEntry:   "vm-entry",
}

// String names the cause.
func (c Cause) String() string {
	if int(c) < len(recoveryCauseNames) {
		return recoveryCauseNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// MarshalText serializes the cause by name.
func (c Cause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a cause name (closed set, like Strategy).
func (c *Cause) UnmarshalText(b []byte) error {
	for i, name := range recoveryCauseNames {
		if string(b) == name {
			*c = Cause(i)
			return nil
		}
	}
	return fmt.Errorf("recovery: unknown cause %q", string(b))
}

// CauseOf derives the trigger cause from how the detected execution
// stopped. hang is the sentry's budget-exhaustion flag (a hang surfaces as
// StopBudget, which the watchdog detector claims).
func CauseOf(stop cpu.StopReason, hang bool) Cause {
	switch {
	case hang:
		return CauseWatchdog
	case stop == cpu.StopException:
		return CauseException
	case stop == cpu.StopAssert:
		return CauseAssertion
	default:
		return CauseVMEntry
	}
}

// Class is the outcome taxonomy of one recovery attempt, judged against
// the golden reference after the recovered run completed (or failed to).
type Class uint8

const (
	// ClassNone: no recovery was attempted.
	ClassNone Class = iota
	// ClassFull: the recovered run's guest-visible stream matched the
	// golden reference — the fault was fully absorbed.
	ClassFull
	// ClassDegraded: the run completed but one VM crashed or lost service
	// (divergence confined to a failure the system can isolate).
	ClassDegraded
	// ClassGuestCorrupted: the run completed and delivered silently
	// corrupted data to a guest — the corruption predated the reboot and
	// survived in preserved guest state.
	ClassGuestCorrupted
	// ClassFailed: recovery did not save the run — the re-execution died
	// under the watchdog, or the workload failed system-wide later.
	ClassFailed

	numClasses
)

var classNames = [numClasses]string{
	ClassNone:           "none",
	ClassFull:           "full",
	ClassDegraded:       "degraded",
	ClassGuestCorrupted: "guest-corrupted",
	ClassFailed:         "failed",
}

// String names the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// MarshalText serializes the class by name.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a class name (closed set, like Strategy).
func (c *Class) UnmarshalText(b []byte) error {
	for i, name := range classNames {
		if string(b) == name {
			*c = Class(i)
			return nil
		}
	}
	return fmt.Errorf("recovery: unknown class %q", string(b))
}

// Classes returns the attempted classes in render order (ClassNone
// excluded: it marks runs without an attempt).
func Classes() []Class {
	return []Class{ClassFull, ClassDegraded, ClassGuestCorrupted, ClassFailed}
}

// Classify maps a recovered run's end state to its class. completed is
// false when the run never ran to completion after the recovery — the
// re-executed activation died under the watchdog or a later activation
// truncated the run; worst is the worst golden-differential consequence
// across the run's completed activations.
func Classify(completed bool, worst guest.Consequence) Class {
	switch {
	case !completed, worst >= guest.AllVMFailure:
		return ClassFailed
	case worst == guest.Benign:
		return ClassFull
	case worst == guest.AppSDC:
		return ClassGuestCorrupted
	default:
		// AppCrash, OneVMFailure: the fault cost a guest, not the system.
		return ClassDegraded
	}
}

// Outcome is the typed error record of one recovery attempt — what fired,
// what the engine did about it, and how the re-execution went — laid out
// like a RAS error-record bank: cause/status fields first, payload after.
// The zero value means "no recovery attempted", which is also what WAL
// records written before the engine existed decode to.
type Outcome struct {
	// Attempted: the engine fired on this run.
	Attempted bool `json:"attempted,omitempty"`
	// Strategy the policy selected.
	Strategy Strategy `json:"strategy,omitempty"`
	// Technique is the detection that triggered the engine.
	Technique detect.Technique `json:"technique,omitempty"`
	// Cause is how the detection surfaced.
	Cause Cause `json:"cause,omitempty"`
	// Activation is the activation index the engine fired at.
	Activation int `json:"activation,omitempty"`
	// ReExecuted: the re-entered activation reached VM entry under the
	// watchdog.
	ReExecuted bool `json:"re_executed,omitempty"`
	// ReSteps is the instruction count of the re-execution.
	ReSteps uint64 `json:"re_steps,omitempty"`
	// Class is the final classification against the golden reference,
	// filled in once the recovered run finished (or failed to).
	Class Class `json:"class,omitempty"`
}

// Rule is one policy-table entry. Zero fields are wildcards: TechNone
// matches any technique, CauseNone any cause.
type Rule struct {
	Technique detect.Technique
	Cause     Cause
	Strategy  Strategy
}

// Policy maps a detection to the strategy applied to it. Rules are checked
// in order, first match wins; Default applies when none matches.
type Policy struct {
	Rules   []Rule
	Default Strategy
}

// Decide selects the strategy for one detection.
func (p *Policy) Decide(tech detect.Technique, cause Cause) Strategy {
	for _, r := range p.Rules {
		if r.Technique != detect.TechNone && r.Technique != tech {
			continue
		}
		if r.Cause != CauseNone && r.Cause != cause {
			continue
		}
		return r.Strategy
	}
	return p.Default
}

// UniformPolicy applies one strategy to every detection.
func UniformPolicy(s Strategy) Policy { return Policy{Default: s} }

// DefaultPolicy is the mixed table the "policy" strategy name selects:
// detections that end the execution (exception, assertion, hang) mean the
// hypervisor's private state is suspect, so they microreboot; a
// transition-signature detection fires at VM entry with the execution
// complete and state structurally intact, so the cheaper Section VI
// rollback suffices.
func DefaultPolicy() Policy {
	return Policy{
		Rules: []Rule{
			{Cause: CauseException, Strategy: StrategyMicroreboot},
			{Cause: CauseAssertion, Strategy: StrategyMicroreboot},
			{Cause: CauseWatchdog, Strategy: StrategyMicroreboot},
			{Technique: detect.TechVMTransition, Strategy: StrategyRestore},
		},
		Default: StrategyMicroreboot,
	}
}

// Engine is the armed recovery configuration a simulated machine consults
// on every positive detection. It is stateless and safe to share across
// machines and goroutines.
type Engine struct {
	Policy Policy
	// Budget is the watchdog instruction budget for the re-executed
	// activation (0 = hv.DefaultBudget).
	Budget uint64
}

// Decide selects the strategy for one detection.
func (e *Engine) Decide(tech detect.Technique, cause Cause) Strategy {
	return e.Policy.Decide(tech, cause)
}

// MayRestore reports whether any decision this engine can reach is
// StrategyRestore. Restore is the only strategy that consumes the per-step
// VM-exit snapshot, so a machine armed with an engine that can never pick
// it (e.g. uniform microreboot) skips taking the snapshot entirely. That
// saves the snapshot's cost and, because a snapshot drops every D-TLB
// entry, keeps such runs' D-TLB injections striking the entries an
// unarmed machine would hold.
func (e *Engine) MayRestore() bool {
	if e.Policy.Default == StrategyRestore {
		return true
	}
	for _, r := range e.Policy.Rules {
		if r.Strategy == StrategyRestore {
			return true
		}
	}
	return false
}

// Watchdog returns the re-execution instruction budget.
func (e *Engine) Watchdog() uint64 {
	if e.Budget == 0 {
		return hv.DefaultBudget
	}
	return e.Budget
}

// NewEngine builds an engine applying one strategy uniformly.
// StrategyNone returns nil: recovery off.
func NewEngine(s Strategy) *Engine {
	if s == StrategyNone {
		return nil
	}
	return &Engine{Policy: UniformPolicy(s)}
}

// EngineFor builds the engine a campaign strategy name selects: "", "off",
// and "none" mean recovery off (nil engine); "microreboot" and "restore"
// apply that strategy uniformly; "policy" selects DefaultPolicy. Any other
// name is an error — the campaign flag and the coordinator's spec
// validation both surface it verbatim.
func EngineFor(name string) (*Engine, error) {
	if name == "policy" {
		return &Engine{Policy: DefaultPolicy()}, nil
	}
	s, ok := ParseStrategy(name)
	if !ok {
		return nil, fmt.Errorf("recovery: unknown strategy %q (want one of %s)",
			name, strings.Join(StrategyNames(), "|"))
	}
	return NewEngine(s), nil
}
