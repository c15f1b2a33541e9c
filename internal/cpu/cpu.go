// Package cpu implements the execution core of the simulated machine: a
// fetch/decode/execute engine over isa programs with x86-style flag
// semantics, architectural exceptions (#DE, #UD, #GP, #PF, stack fault),
// performance-counter retirement hooks, and an instruction budget that
// doubles as a hang watchdog.
//
// The core is deliberately transparent to fault injection: the injector
// flips bits directly in Regs via the PreStep hook at a chosen dynamic
// instruction, and every propagation behaviour — invalid fetch, wrong
// branch, corrupted store address, lengthened rep-mov — follows mechanically
// from the semantics here.
package cpu

import (
	"errors"
	"fmt"

	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/perf"
)

// Vector is an x86 exception vector number.
type Vector int

// Exception vectors (x86 numbering).
const (
	VecDE Vector = 0  // divide error
	VecUD Vector = 6  // invalid opcode
	VecSS Vector = 12 // stack-segment fault
	VecGP Vector = 13 // general protection
	VecPF Vector = 14 // page fault
)

// String names the vector.
func (v Vector) String() string {
	switch v {
	case VecDE:
		return "#DE"
	case VecUD:
		return "#UD"
	case VecSS:
		return "#SS"
	case VecGP:
		return "#GP"
	case VecPF:
		return "#PF"
	}
	return fmt.Sprintf("#VEC%d", int(v))
}

// Exception is an architectural exception raised during execution.
type Exception struct {
	Vector Vector
	PC     uint64 // address of the faulting instruction
	Addr   uint64 // faulting data/fetch address, when meaningful
	// Cause is a fixed description of the exception, or empty when Fault
	// explains it.
	Cause string
	// Fault is the memory unit's error behind a faulting load or store.
	// It is kept unformatted: most exceptions end a campaign run whose
	// explanation nothing reads, so Error formats it on demand.
	Fault error
}

// Error implements error.
func (e *Exception) Error() string {
	cause := e.Cause
	if e.Fault != nil {
		cause = e.Fault.Error()
	}
	return fmt.Sprintf("cpu: %s at pc=%#x addr=%#x (%s)", e.Vector, e.PC, e.Addr, cause)
}

// FetchResult reports the outcome of an instruction fetch.
type FetchResult int

// Fetch outcomes.
const (
	// FetchOK: a valid instruction at a valid boundary.
	FetchOK FetchResult = iota
	// FetchUnmapped: the address is outside any text segment (#PF on fetch).
	FetchUnmapped
	// FetchMisaligned: inside text but not on an instruction boundary (#UD).
	FetchMisaligned
)

// StopReason says why a Run returned.
type StopReason int

// Stop reasons.
const (
	// StopVMEntry: the program executed OpVMEntry (normal completion).
	StopVMEntry StopReason = iota
	// StopHalt: the program executed OpHlt (hypervisor panic path).
	StopHalt
	// StopException: an architectural exception was raised.
	StopException
	// StopAssert: an enabled software assertion failed.
	StopAssert
	// StopBudget: the instruction budget was exhausted (hang watchdog).
	StopBudget
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopVMEntry:
		return "vmentry"
	case StopHalt:
		return "halt"
	case StopException:
		return "exception"
	case StopAssert:
		return "assert"
	case StopBudget:
		return "budget"
	}
	return fmt.Sprintf("stop(%d)", int(r))
}

// RunResult describes a completed Run.
type RunResult struct {
	Reason StopReason
	// Steps is the number of dynamic instructions retired (rep-mov
	// iterations each count as one).
	Steps uint64
	// Exc is set when Reason is StopException.
	Exc *Exception
	// AssertPC is the address of the failed assertion when Reason is
	// StopAssert.
	AssertPC uint64
}

// CPU is one logical processor.
type CPU struct {
	// Regs is the architectural register file, the fault-injection target.
	Regs [isa.NumReg]uint64

	// Mem is the data memory map.
	Mem *mem.Memory
	// Text is the linked text segment instruction fetches resolve in.
	Text *Segment
	// PMU is the performance counter bank fed at retirement.
	PMU *perf.Counters

	// AssertsEnabled compiles software assertions in (Xentry runtime
	// detection); when false they cost nothing, as in a release Xen build.
	AssertsEnabled bool

	// CpuidTable maps cpuid leaves to their EAX..EDX results.
	CpuidTable map[uint64][4]uint64
	// TSC is the time-stamp counter, advanced by one per retired
	// instruction.
	TSC uint64

	// OutHook observes OpOut device writes.
	OutHook func(port int64, val uint64)
	// PreStep, when set, runs before each dynamic instruction with the
	// zero-based step index and current PC. The fault injector uses it to
	// flip a register bit at an exact dynamic point. A hook may set
	// PreStep to nil from inside itself to disarm: Run notices at the next
	// instruction boundary and drops to the untraced fast loop for the
	// rest of the execution.
	PreStep func(step uint64, pc uint64)
	// PreStepFrom defers an armed PreStep: Run executes the local steps
	// below it untraced and calls the hook only from the first instruction
	// boundary at or after it. A rep movs that straddles the cut runs to
	// completion untraced first, because the traced loop calls the hook
	// once per instruction, not once per retired word. The cut applies to
	// every Run while it is set (each Run counts local steps from zero), so
	// a hook that must see later Runs from their start clears it when it
	// fires.
	PreStepFrom uint64

	// DisableThreaded pins untraced execution to runFast, the loop over
	// the shared semantics table that the traced loop also dispatches
	// through, instead of the direct-threaded code. It is the threaded
	// translator's one oracle: FuzzThreadedVsSwitch, the equivalence
	// matrix's switch column (sim.Config.SwitchDispatch) and the
	// benchmark's /switch variant hold the translator to it bit for bit.
	DisableThreaded bool

	// repCut records that a rep movs stopped mid-copy on budget exhaustion
	// (both dispatchers set it on that cold path). Run clears it before an
	// untraced prefix and reads it after, to finish a rep the PreStepFrom
	// cut split.
	repCut bool

	// pend accumulates performance-counter retirement between flushes.
	// The run loops retire into these plain counters and flush them to
	// the PMU once per Run (the PMU is only ever read at VM entry, after
	// Run has returned), so the hot path carries no armed checks and no
	// per-event method calls. Invariant: zero outside Run.
	pend perf.Sample
}

// New returns a CPU bound to the given memory, text segment and PMU.
func New(m *mem.Memory, text *Segment, pmu *perf.Counters) *CPU {
	return &CPU{Mem: m, Text: text, PMU: pmu, CpuidTable: map[uint64][4]uint64{}}
}

// Reset clears the register file.
func (c *CPU) Reset() {
	c.Regs = [isa.NumReg]uint64{}
}

// State is the CPU's complete mutable architectural state: the register
// file (including RIP and RFLAGS) and the TSC. Hooks, the cpuid table,
// and the assert switch are configuration, not state, and are not
// captured. The simulator's cost model lives outside the CPU
// (sim.Machine.Clock), so nothing here counts work for accounting's sake.
type State struct {
	Regs [isa.NumReg]uint64
	TSC  uint64
}

// State captures the CPU's architectural state for a checkpoint.
func (c *CPU) State() State {
	return State{Regs: c.Regs, TSC: c.TSC}
}

// ArchHash hashes the CPU's complete mutable architectural state — the
// register file and the TSC — for convergence fingerprints (FNV-1a over
// the words, splitmix64 finalizer). Including the TSC makes it a cheap
// first-stage divergence filter: a run that faulted, detected without
// recovering, or merely retired a different instruction count differs in
// the TSC and is rejected without touching memory. A live recovery
// rewinds the TSC with the rest of the VM-exit snapshot, so a run whose
// re-execution retraced the reference activation can match again.
func (c *CPU) ArchHash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, r := range &c.Regs {
		h ^= r
		h *= prime
	}
	h ^= c.TSC
	h *= prime
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// RestoreState reinstates a captured State.
func (c *CPU) RestoreState(s State) {
	c.Regs = s.Regs
	c.TSC = s.TSC
}

// errVMEntry and friends signal non-exception stops out of step().
var (
	errVMEntry = errors.New("vmentry")
	errHalt    = errors.New("halt")
	errAssert  = errors.New("assert")
)

// Run executes from the current RIP until VM entry, halt, exception, failed
// assertion, or budget exhaustion.
//
// The loop is split three ways, each fetching straight from the Segment.
// runThreaded is the steady state: untraced direct-threaded execution over
// the segment's translated op closures. runFast is the same untraced loop
// over the semantics table — the dispatcher the differential harness holds
// runThreaded against (DisableThreaded). runTraced runs only while PreStep
// is armed, from the PreStepFrom cut on, and hands the remaining budget to
// the untraced loop the moment the hook disarms itself — which the
// injector does as soon as the flip's fate is decided, so a traced
// injection run spends almost all of its instructions on threaded code.
// All paths flush pending PMU counts exactly once, at stop, before any
// caller can observe the counter bank.
func (c *CPU) Run(budget uint64) RunResult {
	var rr RunResult
	done := false
	if c.PreStep != nil {
		if c.PreStepFrom > 0 {
			rr, done = c.runPrefix(min(c.PreStepFrom, budget), budget)
		}
		if !done {
			rr, done = c.runTraced(rr.Steps, budget)
		}
	}
	if !done {
		prefix := rr.Steps
		rr = c.runUntraced(budget - prefix)
		rr.Steps += prefix
	}
	// INST_RETIRED advances once per retired instruction — the quantity
	// Steps totals — so it is charged here in bulk (see retire).
	c.pend[perf.InstRetired] += rr.Steps
	c.flushPMU()
	return rr
}

// runUntraced runs the untraced loop DisableThreaded selects.
func (c *CPU) runUntraced(budget uint64) RunResult {
	if !c.DisableThreaded {
		return c.runThreaded(budget)
	}
	return c.runFast(budget)
}

// runPrefix executes the first cut local steps of a deferred traced run
// untraced and reports done when the run stopped before the cut. The
// untraced loop stops exactly at its budget, at an instruction boundary —
// fused superinstructions split at budget seams like the interpreter —
// except inside a rep movs, which retires one step per word; a rep the cut
// split runs to completion here, so the first hook call lands on the same
// instruction boundary the traced loop would have given it. total is the
// whole Run's budget, which bounds the finished rep.
func (c *CPU) runPrefix(cut, total uint64) (RunResult, bool) {
	c.repCut = false
	rr := c.runUntraced(cut)
	if rr.Reason != StopBudget || rr.Steps >= total {
		return rr, true
	}
	if c.repCut {
		// The rep at RIP resumes from its registers; its semantics read
		// no operand field of the instruction.
		pc := c.Regs[isa.RIP]
		retired, err := semRepMovs(c, nil, pc, pc+isa.InstrBytes, total-rr.Steps)
		rr.Steps += retired
		if err != nil {
			return stepStop(err, rr.Steps, pc), true
		}
		if rr.Steps >= total {
			return RunResult{Reason: StopBudget, Steps: rr.Steps}, true
		}
	}
	return rr, false
}

// fetchStop builds the RunResult for a failed instruction fetch.
func fetchStop(fr FetchResult, pc, steps uint64) RunResult {
	if fr == FetchUnmapped {
		return RunResult{Reason: StopException, Steps: steps,
			Exc: &Exception{Vector: VecPF, PC: pc, Addr: pc, Cause: "instruction fetch from unmapped address"}}
	}
	return RunResult{Reason: StopException, Steps: steps,
		Exc: &Exception{Vector: VecUD, PC: pc, Addr: pc, Cause: "fetch off instruction boundary"}}
}

// stepStop classifies a non-nil step error into the final RunResult.
func stepStop(err error, steps, pc uint64) RunResult {
	switch {
	case errors.Is(err, errVMEntry):
		return RunResult{Reason: StopVMEntry, Steps: steps}
	case errors.Is(err, errHalt):
		return RunResult{Reason: StopHalt, Steps: steps}
	case errors.Is(err, errAssert):
		return RunResult{Reason: StopAssert, Steps: steps, AssertPC: pc}
	default:
		var exc *Exception
		if errors.As(err, &exc) {
			return RunResult{Reason: StopException, Steps: steps, Exc: exc}
		}
		// Unreachable: step only returns the above error kinds.
		panic(fmt.Sprintf("cpu: unexpected step error %v", err))
	}
}

// runFast is the untraced hot loop over the semantics table: no PreStep
// check per iteration, and a direct (inlinable) fetch from the Segment.
func (c *CPU) runFast(budget uint64) RunResult {
	seg := c.Text
	var steps uint64
	for steps < budget {
		pc := c.Regs[isa.RIP]
		in, fr := seg.FetchPtr(pc)
		if fr != FetchOK {
			return fetchStop(fr, pc, steps)
		}
		retired, err := c.step(pc, in, budget-steps)
		steps += retired
		if err != nil {
			return stepStop(err, steps, pc)
		}
	}
	return RunResult{Reason: StopBudget, Steps: steps}
}

// runTraced runs while PreStep is armed, from local step steps (the
// untraced prefix before a PreStepFrom cut) to budget. It re-reads the
// hook every iteration: when the hook disarms itself (sets PreStep to
// nil), runTraced returns done=false with the steps consumed so far and
// Run continues the remaining budget on the untraced loop. The disarm
// check happens only while steps < budget, so the untraced loop always
// receives a budget of at least one.
func (c *CPU) runTraced(steps, budget uint64) (RunResult, bool) {
	seg := c.Text
	for steps < budget {
		hook := c.PreStep
		if hook == nil {
			return RunResult{Steps: steps}, false
		}
		pc := c.Regs[isa.RIP]
		hook(steps, pc)
		pc = c.Regs[isa.RIP] // injection may have flipped RIP
		in, fr := seg.FetchPtr(pc)
		if fr != FetchOK {
			return fetchStop(fr, pc, steps), true
		}
		retired, err := c.step(pc, in, budget-steps)
		steps += retired
		if err != nil {
			return stepStop(err, steps, pc), true
		}
	}
	return RunResult{Reason: StopBudget, Steps: steps}, true
}

// retire charges one retired instruction with the given event profile. The
// TSC advances inline (rdtsc reads it mid-run); the event counts
// accumulate in pending locals and flush at Run stop.
// INST_RETIRED is not counted here at all: retire fires exactly once per
// dynamically retired instruction, which is what RunResult.Steps already
// totals, so the run loops charge pend[InstRetired] in bulk from Steps at
// their flush points rather than paying a third increment per instruction.
func (c *CPU) retire(branch, load, store bool) {
	c.TSC++
	if branch {
		c.pend[perf.BranchRetired]++
	}
	if load {
		c.pend[perf.LoadsRetired]++
	}
	if store {
		c.pend[perf.StoresRetired]++
	}
}

// flushPMU folds pending retirement counts into the counter bank. Every Run
// return path flushes, so pend is always zero outside Run and never needs
// capturing in State.
func (c *CPU) flushPMU() {
	if c.pend != (perf.Sample{}) {
		if c.PMU != nil {
			c.PMU.Add(c.pend)
		}
		c.pend = perf.Sample{}
	}
}
