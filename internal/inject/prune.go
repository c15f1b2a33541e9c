package inject

// Convergence pruning (DESIGN.md §10). Two mechanisms cut the work of the
// dominant masked outcome class without changing a single outcome bit:
//
//   - Dead-value pre-pruning: the golden instruction trace proves some
//     flips are overwritten before anything reads them, so the whole run
//     is the reference run and its outcome can be synthesized from
//     recorded reference verdicts without touching a machine.
//
//   - Convergence early exit: once an injected machine's architectural
//     fingerprint matches the golden fingerprint at the same activation
//     boundary, every remaining activation is bit-identical to the
//     reference stream; the suffix is folded from recorded verdicts
//     instead of executed.
//
// Both are gated off by Runner.DisablePrune and whenever plugin detectors
// are configured (a plugin may carry cross-activation state the
// architectural fingerprint cannot see; the built-in detectors are
// stateless between activations). The differential tests run every
// campaign path with pruning on and off and require reflect.DeepEqual
// tallies, so any synthesis below that diverges from the full engine by
// one bit is a test failure, not a statistics skew.

import (
	"encoding/json"

	"xentry/internal/core"
	"xentry/internal/guest"
	"xentry/internal/isa"
)

// convFoldBudget bounds how many memory folds a single run may spend on
// arch-hash matches that turn out not to be memory matches. TSC
// divergence makes such re-coincidences rare; the budget keeps a
// pathological workload from folding memory at every boundary. It is a
// fixed constant so the decision to stop checking is deterministic (the
// differential guarantee needs identical outcomes, not identical effort,
// but determinism keeps run provenance reproducible too).
const convFoldBudget = 8

// PruneKind records how the engine executed a run. It is pure provenance:
// a pruned outcome is bit-identical to the full run in every other field.
type PruneKind uint8

const (
	// PruneNone: the run executed its full activation budget.
	PruneNone PruneKind = iota
	// PruneDead: the golden trace proved the flip dead; the outcome was
	// synthesized without simulation.
	PruneDead
	// PruneConverged: the run terminated early at a fingerprint match.
	PruneConverged
)

var pruneNames = [...]string{
	PruneNone:      "none",
	PruneDead:      "dead",
	PruneConverged: "converged",
}

// String names the kind ("none", "dead", "converged").
func (p PruneKind) String() string {
	if int(p) < len(pruneNames) {
		return pruneNames[p]
	}
	return "none"
}

// PruneStats counts run provenance in a Tally. The counters are the one
// place a pruned campaign is allowed to differ from an unpruned one; the
// differential tests zero this struct before comparing tallies.
type PruneStats struct {
	// Dead: tallied from the golden trace without touching a machine.
	Dead int
	// Converged: early-exited at a matching fingerprint boundary.
	Converged int
	// Full: executed the full activation budget.
	Full int
	// BySite breaks the same counts down by fault-site class (indexed by
	// Site), so an uncore campaign's report shows pruning actually firing
	// per class. A fixed-size array — not a map — keeps tallies
	// comparable with == and reflect.DeepEqual, which the fleet's
	// lease-vs-worker cross-check depends on.
	BySite [NumSites]SitePruneStats
}

// SitePruneStats is one site class's run-provenance row.
type SitePruneStats struct {
	Dead      int `json:"dead,omitempty"`
	Converged int `json:"converged,omitempty"`
	Full      int `json:"full,omitempty"`
}

// prunedJSON is the wire shape of PruneStats: aggregate counters plus a
// by-site object keyed by site name, zero rows omitted.
type prunedJSON struct {
	Dead      int                       `json:"dead"`
	Converged int                       `json:"converged"`
	Full      int                       `json:"full"`
	BySite    map[string]SitePruneStats `json:"by_site,omitempty"`
}

// MarshalJSON renders the aggregate counters plus the non-zero per-site
// rows keyed by site name.
func (p PruneStats) MarshalJSON() ([]byte, error) {
	out := prunedJSON{Dead: p.Dead, Converged: p.Converged, Full: p.Full}
	for s := Site(0); s < NumSites; s++ {
		if p.BySite[s] != (SitePruneStats{}) {
			if out.BySite == nil {
				out.BySite = make(map[string]SitePruneStats, int(NumSites))
			}
			out.BySite[s.String()] = p.BySite[s]
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON is MarshalJSON's faithful inverse.
func (p *PruneStats) UnmarshalJSON(b []byte) error {
	var in prunedJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*p = PruneStats{Dead: in.Dead, Converged: in.Converged, Full: in.Full}
	for name, row := range in.BySite {
		var s Site
		if err := s.UnmarshalText([]byte(name)); err != nil {
			return err
		}
		p.BySite[s] = row
	}
	return nil
}

// add merges two stat blocks.
func (p *PruneStats) add(q PruneStats) {
	p.Dead += q.Dead
	p.Converged += q.Converged
	p.Full += q.Full
	for i := range p.BySite {
		p.BySite[i].Dead += q.BySite[i].Dead
		p.BySite[i].Converged += q.BySite[i].Converged
		p.BySite[i].Full += q.BySite[i].Full
	}
}

// count tallies one outcome's provenance under its fault-site class.
func (p *PruneStats) count(kind PruneKind, site Site) {
	var row *SitePruneStats
	if site < NumSites {
		row = &p.BySite[site]
	} else {
		row = new(SitePruneStats) // unknown site: aggregate only
	}
	switch kind {
	case PruneDead:
		p.Dead++
		row.Dead++
	case PruneConverged:
		p.Converged++
		row.Converged++
	default:
		p.Full++
		row.Full++
	}
}

// traceEnt is one PreStep observation from the reference run: the PC about
// to execute and the hook's step index. Step indices are local to one
// cpu.Run call — an exception fixup resumes execution in a fresh Run whose
// indices restart at zero — and the injection hook compares Plan.Step
// against exactly these local indices, so the pre-pruner replays the
// hook's decisions against the same numbering it saw.
type traceEnt struct {
	pc   uint64
	step uint64
}

// regTrace is one activation's reference instruction trace.
type regTrace []traceEnt

// refVerdict is the compact per-activation verdict record of the reference
// run — a machine configured exactly like the injection machines (model
// installed, recovery switch set). The reference's *observable* stream is
// identical to the golden stream (a model false positive triggers restore
// plus idempotent re-execution), but its verdict fields are not: false
// positives detect, and with recovery enabled, recover. Pruned runs fold
// these verdicts exactly as a full run folds the activations it skipped.
// The reference stop reason is always VM entry (the golden run asserts the
// fault-free workload never faults or hangs), so foldVerdict's recovery
// guard reduces to the recovered bit alone.
type refVerdict struct {
	steps     uint64
	technique core.Technique
	first     core.Technique
	recovered bool
}

// foldRef mirrors foldVerdict for activations a pruned run never executed,
// using the recorded reference verdict in place of a live activation.
func (o *Outcome) foldRef(index int, rv refVerdict, latency uint64) {
	if o.Detected != core.TechNone {
		return
	}
	switch {
	case rv.recovered:
		o.Detected = rv.first
		o.DetectedAt = index
		o.Recovered = true
		o.Latency = latency
	case rv.technique != core.TechNone:
		o.Detected = rv.technique
		o.DetectedAt = index
		o.Latency = latency
	}
}

// foldRefSuffix folds the reference verdicts for activations [from,
// Activations) with the same running-latency accumulation RunOne uses for
// an executed suffix, starting from the latency already accumulated up to
// (and excluding) activation from.
func (r *Runner) foldRefSuffix(o *Outcome, from int, runningLatency uint64) {
	for i := from; i < r.Activations && o.Detected == core.TechNone; i++ {
		o.foldRef(i, r.refs[i], runningLatency+r.refs[i].steps)
		runningLatency += r.refs[i].steps
	}
}

// pruneEnabled reports whether both pruning mechanisms are live — for
// every site class: the fingerprint is machine-wide (Arch + Uncore + Mem;
// the Uncore hash covers PMU banks and D-TLB poison, the page fold covers
// the APIC and page-table words living in hv_data), and each uncore class
// carries its own dead-flip argument (prune_uncore.go). Plugin detectors
// force pruning off: the soundness argument (fingerprint equality ⇒
// identical remaining stream) covers machine state only, and the built-in
// detectors hold none beyond it, but a plugin may.
//
// The recovery engine is armed for the injected run only (the reference
// replay is engine-free), so it keeps pruning only when the reference
// stream carries no detections: then a dead flip's run — identical to the
// reference by construction — never consults the engine, and a converged
// run's folded suffix never would have either, so synthesis stays
// bit-identical. Any reference detection (a model's false positives on
// the fault-free stream) makes the armed engine a real asymmetry — a
// live suffix fires a reboot that a folded one never would — so pruning
// goes off. This check is two-stage: the golden stream inspected here is
// recorded detector-free, so buildCheckpoints re-checks each refVerdict
// during the reference replay, where model false positives first surface,
// and stops recording and drops the prune tables at the first hit. Legacy
// RecoverOnDetection needs neither check — the reference replay recovers
// too, symmetrically.
func (r *Runner) pruneEnabled() bool {
	if r.DisablePrune || len(r.Cfg.Detectors) > 0 {
		return false
	}
	if r.Recovery == nil {
		return true
	}
	for i := range r.Golden {
		if r.Golden[i].Outcome.Verdict.Detected() {
			return false
		}
	}
	return true
}

// prunePlan classifies an injection without executing it when the golden
// trace proves the flip dead: overwritten by a retired register write
// before any instruction reads it and before the dispatch epilogue (which
// reads live RAX for the return value). The synthesized outcome reproduces
// the full engine's bookkeeping bit for bit — the injection hook's
// activation/overwrite automaton, symbol attribution, feature capture,
// latency accounting, and verdict folding.
func (r *Runner) prunePlan(plan Plan) (Outcome, bool) {
	if r.traces == nil {
		return Outcome{}, false
	}
	if !plan.Site.Register() {
		// Uncore plans get their own per-class dead arguments; the
		// register-trace scan below must never judge them.
		return r.pruneUncorePlan(plan)
	}
	if plan.Reg == isa.RIP {
		// A flipped instruction pointer diverges at the very next fetch.
		return Outcome{}, false
	}
	tr := r.traces[plan.Activation]

	// Firing entry: the hook flips the bit at its first call whose local
	// step index reaches Plan.Step. No such entry means the flip never
	// fires at all and the run is the reference run unperturbed.
	k0 := -1
	for k := range tr {
		if tr[k].step >= plan.Step {
			k0 = k
			break
		}
	}

	var (
		sym           string
		activated     bool
		activatedStep uint64
		consumerOp    isa.Op
		haveConsumer  bool
	)
	if k0 >= 0 {
		// Execution truth: scan from the firing entry for the first
		// instruction touching the register. The instruction *at* the
		// firing entry executes with the flipped value yet is never
		// inspected by the hook (which classifies only from the next
		// call), so its reads matter here even though they would not set
		// Activated.
		seg := r.refHV.Seg
		erased := false
		for k := k0; k < len(tr); k++ {
			reads, writes, ok := seg.RegsAt(tr[k].pc)
			if !ok {
				return Outcome{}, false
			}
			if reads.Has(plan.Reg) {
				return Outcome{}, false // consumed: execution diverges
			}
			if writes.Has(plan.Reg) {
				// The write erases the flip only if the instruction
				// retired — a faulting load performs none of its register
				// writes. Retirement is proven by the next entry advancing
				// the local step index (a fault ends the cpu.Run, so a
				// fixup-resumed or later run restarts indices at zero).
				if k+1 < len(tr) && tr[k+1].step > tr[k].step {
					erased = true
				}
				break
			}
		}
		if !erased {
			// Unproven overwrite, or the flip lives to the end of the
			// trace where the dispatch epilogue can expose it (RetVal is
			// read from live RAX). Run it for real.
			return Outcome{}, false
		}

		// Hook automaton: reproduce Activated/overwritten, which the hook
		// decides from the first register-touching instruction *after* the
		// flip. When the erasing write sat at the firing entry itself, the
		// hook never saw it and keeps scanning — it can legitimately mark
		// a later read of the clean value as the activation.
		sym = r.refHV.SymbolFor(tr[k0].pc)
		activatedStep = tr[k0].step
		for k := k0 + 1; k < len(tr); k++ {
			reads, writes, ok := seg.RegsAt(tr[k].pc)
			if !ok {
				return Outcome{}, false
			}
			if reads.Has(plan.Reg) {
				in, _ := seg.FetchPtr(tr[k].pc)
				activated = true
				activatedStep = tr[k].step
				consumerOp = in.Op
				haveConsumer = true
				break
			}
			if writes.Has(plan.Reg) {
				break // hook sees the overwrite first and disarms
			}
		}
	}

	// Synthesize the outcome of a run that is observably the reference
	// run: records identical to golden (Benign, no diff), features equal
	// to golden, detections folded from the reference verdicts with the
	// same latency arithmetic as an executed run.
	a := plan.Activation
	g := &r.Golden[a]
	o := Outcome{Plan: plan, DetectedAt: -1, Pruned: PruneDead}
	o.Symbol = sym
	o.Activated = activated
	o.Features = g.Outcome.Features
	o.HasFeatures = g.Outcome.HasFeatures
	o.FeaturesDiffer = false
	latencyBase := sub(r.refs[a].steps, activatedStep)
	o.foldRef(a, r.refs[a], latencyBase)
	r.foldRefSuffix(&o, a+1, latencyBase)
	o.Consequence = guest.Benign
	o.DiffKind = guest.DiffNone
	o.Manifested = false
	o.LongLatency = false
	o.Cause = r.undetectedCause(&o, haveConsumer, consumerOp)
	return o, true
}
