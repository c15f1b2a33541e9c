// Package core implements Xentry itself: the light-weight software layer
// between the hypervisor and its VMs described in the paper. The Sentry
// intercepts every VM exit (arming performance counters and charging the
// shim's cost), lets the original handler run with software assertions
// compiled in (runtime detection), parses any surfacing hardware exception
// as a fatal-corruption detection, and — at every VM entry — classifies the
// execution's five-feature signature with the trained tree model to catch
// valid-but-incorrect control flow before it propagates into the guest
// (VM transition detection).
//
// Detection itself lives in internal/detect: the sentry emits a typed
// event spine around every monitored execution and folds the first
// verdict from a detector pipeline into the outcome. The paper's
// configuration maps onto the two built-in detectors selected by
// Options; AddDetector appends plugins behind them.
package core

import (
	"xentry/internal/cpu"
	"xentry/internal/detect"
	"xentry/internal/hv"
	"xentry/internal/ml"
)

// Technique identifies which of Xentry's detectors flagged an execution.
// It is detect.Technique: an open registered ID, so plugin detectors mint
// techniques that tally, serialize, and render everywhere the built-in
// trio does.
type Technique = detect.Technique

// Verdict is a detector's positive finding (see detect.Verdict).
type Verdict = detect.Verdict

// Detection techniques (paper Fig. 8's bands), re-exported from the
// registry in internal/detect.
const (
	// TechNone: nothing detected.
	TechNone = detect.TechNone
	// TechHWException: runtime detection via a fatal hardware exception.
	TechHWException = detect.TechHWException
	// TechAssertion: runtime detection via a software assertion.
	TechAssertion = detect.TechAssertion
	// TechVMTransition: VM transition detection at VM entry.
	TechVMTransition = detect.TechVMTransition
	// TechWatchdog: a standalone watchdog detector claimed a hang.
	TechWatchdog = detect.TechWatchdog
)

// Shim cost model in cycles, re-exported from internal/detect (see the
// constants there for the pricing rationale).
const (
	ShimExitCost  = detect.ShimExitCost
	ShimEntryCost = detect.ShimEntryCost
	CompareCost   = detect.CompareCost
)

// Options selects which Xentry detectors are active.
type Options struct {
	// RuntimeDetection enables fatal-hardware-exception parsing and the
	// software assertions (paper Section III-A).
	RuntimeDetection bool
	// TransitionDetection enables feature collection and tree
	// classification at every VM transition (paper Section III-B).
	TransitionDetection bool
}

// FullDetection enables everything, the paper's evaluated configuration.
func FullDetection() Options {
	return Options{RuntimeDetection: true, TransitionDetection: true}
}

// Outcome describes one monitored hypervisor execution.
type Outcome struct {
	// Technique is the detector that flagged the execution (TechNone if
	// the execution passed or monitoring was off).
	Technique Technique
	// Verdict is the full first positive verdict (zero when Technique is
	// TechNone): which detector class fired, where, and why. The runtime
	// detector's why is the exception or failed assertion in Result,
	// which it leaves unformatted.
	Verdict Verdict
	// Hang reports budget exhaustion (a corruption class none of the
	// paper's three techniques can see).
	Hang bool
	// Result is the underlying hypervisor execution result.
	Result hv.Result
	// Features is the collected signature (valid when HasFeatures).
	Features    [ml.NumFeatures]uint64
	HasFeatures bool
	// ShimCycles is the detection overhead charged to this activation.
	ShimCycles uint64
}

// Stats tallies detections per technique. The paper's techniques keep
// their named counters; plugin techniques land in Extra, keyed by
// registered ID.
type Stats struct {
	Activations  uint64
	HWException  uint64
	Assertion    uint64
	VMTransition uint64
	Hangs        uint64
	// Extra tallies detections by techniques outside the built-in trio
	// (nil until one fires, so the default path never allocates it).
	Extra map[Technique]uint64
}

// record folds one detection into the tally.
func (st *Stats) record(t Technique) {
	switch t {
	case TechNone:
	case TechHWException:
		st.HWException++
	case TechAssertion:
		st.Assertion++
	case TechVMTransition:
		st.VMTransition++
	default:
		if st.Extra == nil {
			st.Extra = map[Technique]uint64{}
		}
		st.Extra[t]++
	}
}

// clone deep-copies the tally so checkpointed stats never share the
// Extra map with the live sentry.
func (st Stats) clone() Stats {
	if st.Extra != nil {
		extra := make(map[Technique]uint64, len(st.Extra))
		for k, v := range st.Extra {
			extra[k] = v
		}
		st.Extra = extra
	}
	return st
}

// Detections returns the tally for one technique.
func (st Stats) Detections(t Technique) uint64 {
	switch t {
	case TechHWException:
		return st.HWException
	case TechAssertion:
		return st.Assertion
	case TechVMTransition:
		return st.VMTransition
	default:
		return st.Extra[t]
	}
}

// Sentry is the Xentry framework instance wrapped around one hypervisor.
type Sentry struct {
	HV    *hv.Hypervisor
	Opts  Options
	Model *ml.Tree // transition-detection model; nil before training

	pipeline detect.Pipeline
	extra    []detect.Detector
	// spine is the reusable event passed to the pipeline; keeping it a
	// field (not a local) lets escape analysis hoist the one allocation
	// to sentry construction, off the per-activation path.
	spine detect.Event
	stats Stats
}

// New wraps a hypervisor with Xentry using the given options.
func New(h *hv.Hypervisor, opts Options) *Sentry {
	s := &Sentry{HV: h, Opts: opts}
	s.rebuild()
	return s
}

// rebuild recomputes the pipeline from the options and plugin list.
func (s *Sentry) rebuild() {
	ds := make([]detect.Detector, 0, 2+len(s.extra))
	if s.Opts.RuntimeDetection {
		ds = append(ds, detect.Runtime{})
	}
	if s.Opts.TransitionDetection {
		ds = append(ds, &detect.Transition{Model: func() *ml.Tree { return s.Model }})
	}
	ds = append(ds, s.extra...)
	s.pipeline = detect.NewPipeline(ds...)
}

// AddDetector appends a plugin detector behind the built-in ones (the
// pipeline's first verdict wins, so built-ins keep priority). Detectors
// that calibrate on golden runs or carry checkpointable state declare it
// via the optional interfaces in internal/detect.
func (s *Sentry) AddDetector(d detect.Detector) {
	s.extra = append(s.extra, d)
	s.rebuild()
}

// Detectors returns the plugin detectors added with AddDetector.
func (s *Sentry) Detectors() []detect.Detector { return s.extra }

// Pipeline exposes the assembled detector pipeline (for inspection).
func (s *Sentry) Pipeline() *detect.Pipeline { return &s.pipeline }

// SetModel installs the trained transition-detection model.
func (s *Sentry) SetModel(t *ml.Tree) { s.Model = t }

// Stats returns the detection tallies (deep-copied; the caller may hold
// it across further executions).
func (s *Sentry) Stats() Stats { return s.stats.clone() }

// ResetStats clears the tallies.
func (s *Sentry) ResetStats() { s.stats = Stats{} }

// RestoreStats reinstates tallies captured with Stats — used when the
// machine wrapping this sentry is restored from a checkpoint.
func (s *Sentry) RestoreStats(st Stats) { s.stats = st.clone() }

// FatalException reports whether a surfacing exception is a fatal
// corruption (see detect.FatalException).
func FatalException(exc *cpu.Exception) bool {
	return detect.FatalException(exc)
}

// Execute runs one VM exit under Xentry monitoring and returns the
// detection outcome.
func (s *Sentry) Execute(ev *hv.ExitEvent, budget uint64) (out Outcome, err error) {
	err = s.ExecuteInto(ev, budget, &out)
	return out, err
}

// ExecuteInto runs one VM exit under Xentry monitoring and fills out with
// the detection outcome, every field overwritten. With both detectors
// disabled and no plugins it is exactly the unmodified-Xen path (zero shim
// cost, assertions compiled out). The event spine is per-activation: one
// KindExit event before the handler and one terminal event after it, so
// the interpreter's devirtualized fast path never sees an interface call.
// On error out is unspecified.
func (s *Sentry) ExecuteInto(ev *hv.ExitEvent, budget uint64, out *Outcome) error {
	c := s.HV.CPUFor(ev)
	c.AssertsEnabled = s.Opts.RuntimeDetection

	var shim uint64
	collect := s.pipeline.NeedsSignature()
	if collect {
		c.PMU.Arm()
		shim += ShimExitCost
	} else {
		c.PMU.Disarm()
	}

	sp := &s.spine
	sp.Begin(int(s.stats.Activations), ev.Reason, ev.Dom, s.HV)
	s.pipeline.Exit(sp)

	res, err := s.HV.Dispatch(ev, budget)
	if err != nil {
		return err
	}
	out.Result = res
	out.Hang = false
	out.Features = [ml.NumFeatures]uint64{}
	out.HasFeatures = false
	s.stats.Activations++
	sp.Steps = res.Steps

	var v Verdict
	switch res.Stop {
	case cpu.StopException, cpu.StopHalt:
		// A surfacing exception (or BUG/panic halt) is a fatal system
		// corruption; the runtime detector reports it.
		sp.Kind = detect.KindException
		sp.Exc = res.Exc
		sp.Halt = res.Stop == cpu.StopHalt
		v = s.pipeline.Exception(sp)

	case cpu.StopAssert:
		sp.Kind = detect.KindAssertion
		sp.AssertPC = res.AssertPC
		v = s.pipeline.Assertion(sp)

	case cpu.StopBudget:
		// A hung hypervisor execution trips the NMI watchdog (Xen's
		// watchdog=1); the runtime detector parses the resulting fatal
		// NMI, or a standalone watchdog detector claims the hang as its
		// own technique.
		out.Hang = true
		s.stats.Hangs++
		sp.Kind = detect.KindWatchdog
		v = s.pipeline.Watchdog(sp)

	case cpu.StopVMEntry:
		sp.Kind = detect.KindVMEntry
		if collect {
			sample := c.PMU.Read()
			c.PMU.Disarm()
			sp.Signature = [ml.NumFeatures]uint64{
				uint64(ev.Reason), sample.RT(), sample.BR(), sample.RM(), sample.WM(),
			}
			sp.HasSignature = true
			out.Features = sp.Signature
			out.HasFeatures = true
			shim += ShimEntryCost
		}
		v = s.pipeline.VMEntry(sp)
	}
	out.Technique = v.Technique
	out.Verdict = v
	s.stats.record(v.Technique)
	out.ShimCycles = shim + sp.Cost()
	return nil
}
