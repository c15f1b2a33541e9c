package inject

// Dead-value pre-pruning for the uncore fault sites (DESIGN.md §15). The
// register pruner's argument — the golden trace proves the flip is erased
// or never observed before anything consumes it, so the run is the
// reference run and its outcome can be synthesized — extends to each
// uncore class with a class-specific proof obligation:
//
//   - APIC: bit d of CPU c's pending-IRQ word is written only by
//     QueueCrossEvents (OR of 1<<d into word HomeCPU(d)) and read only by
//     DeliverIPI(d) testing bit d of word HomeCPU(d). A flipped bit is
//     therefore dead unless it indexes a real domain homed on exactly the
//     struck CPU's word; every other bit is never read, and the
//     read-modify-write cycles of both functions preserve it without
//     consulting it. The words live in hv_data, invisible to guest
//     records, so a dead bit persisting forever is unobservable.
//
//   - PMU: counters are armed (zeroed) on the executing CPU at activation
//     start and read only at that CPU's VM entry. A flip landing in a
//     bank that is not executing the injected activation is erased by
//     that CPU's next Arm before any read — or, when signature collection
//     is off, never read at all. Flips into the executing bank can
//     perturb the VM-entry signature and run for real.
//
//   - Page table: the shadow page-table window is touched only by handler
//     text, so the reference access trace recorded at pool-build time
//     (ptAccs) is exhaustive. A flipped word is dead if its first
//     subsequent access is a retired store (erased), or a load whose
//     destination register provably dies before any read — repeated until
//     the word is erased or the run ends with the flip never observed.
//
//   - D-TLB: no static argument is attempted. A poisoned tag's fate
//     depends on the access stream; the poison summary is folded into the
//     Uncore fingerprint, so convergence pruning handles refilled or
//     invalidated entries instead.
//
// Every synthesized outcome is held bit-identical to the full engine by
// the per-class prune-vs-full differential tests.

import (
	"xentry/internal/cpu"
	"xentry/internal/guest"
	"xentry/internal/hv"
	"xentry/internal/isa"
)

// ptAcc is one recorded access to the shadow page-table window during the
// reference run: the index k into the activation's instruction trace, the
// window word touched, and — for loads — the destination register. An
// access the recorder cannot attribute to a single aligned word (an
// unaligned effective address, or a rep-move whose range overlaps the
// window) is recorded opaque and makes the scanner bail.
type ptAcc struct {
	k      int
	word   uint16
	dst    isa.Reg
	load   bool
	opaque bool
}

// appendPTAcc records the page-table-window accesses the instruction about
// to execute will perform, computing effective addresses from the live
// register file exactly as the semantic functions do. Ops that cannot
// touch memory record nothing.
func appendPTAcc(accs []ptAcc, k int, in isa.Instr, c *cpu.CPU) []ptAcc {
	base := hv.PageTableAddr()
	size := uint64(hv.PageTableWords) * 8
	add := func(ea uint64, load bool, dst isa.Reg) {
		if ea >= base+size || ea+8 <= base || ea+8 < ea {
			return
		}
		if ea%8 != 0 || ea < base {
			accs = append(accs, ptAcc{k: k, opaque: true})
			return
		}
		accs = append(accs, ptAcc{k: k, word: uint16((ea - base) / 8), dst: dst, load: load})
	}
	switch in.Op {
	case isa.OpLoad:
		add(c.Regs[in.Base]+uint64(in.Imm), true, in.Dst)
	case isa.OpStore:
		add(c.Regs[in.Base]+uint64(in.Imm), false, 0)
	case isa.OpPush, isa.OpCall:
		add(c.Regs[isa.RSP]-8, false, 0)
	case isa.OpPop:
		add(c.Regs[isa.RSP], true, in.Dst)
	case isa.OpRet:
		add(c.Regs[isa.RSP], true, isa.RIP)
	case isa.OpRepMovs:
		// One PreStep observation covers the whole burst; rather than
		// model per-word completion, any range overlap with the window is
		// opaque. Handlers never rep-move through the page-table window,
		// so this conservatism costs nothing in practice.
		cnt := c.Regs[isa.RCX]
		for _, start := range [2]uint64{c.Regs[isa.RSI], c.Regs[isa.RDI]} {
			bytes := 8 * cnt
			if cnt != 0 && bytes/cnt != 8 {
				bytes = ^uint64(0) // saturate: the range covers everything
			}
			end := start + bytes
			if end < start {
				end = ^uint64(0)
			}
			if start < base+size && end > base {
				accs = append(accs, ptAcc{k: k, opaque: true})
				break
			}
		}
	}
	return accs
}

// pruneUncorePlan classifies an uncore injection without executing it when
// the class-specific dead argument holds (or when the flip never fires at
// all). It mirrors prunePlan's contract: the synthesized outcome is bit
// for bit what the full engine would produce.
func (r *Runner) pruneUncorePlan(plan Plan) (Outcome, bool) {
	tr := r.traces[plan.Activation]
	k0 := -1
	for k := range tr {
		if tr[k].step >= plan.Step {
			k0 = k
			break
		}
	}
	if k0 < 0 {
		// The injection hook never fires: the run is the reference run
		// unperturbed (RunOne's pre-run TLB invalidation for dtlb plans is
		// observationally transparent).
		return r.synthUncoreDead(plan, -1), true
	}
	dead := false
	switch plan.Site {
	case SiteAPIC:
		dead = r.apicFlipDead(plan)
	case SitePMU:
		dead = r.pmuFlipDead(plan)
	case SitePT:
		dead = r.ptFlipDead(plan, k0)
	default:
		return Outcome{}, false // SiteTLB: convergence territory
	}
	if !dead {
		return Outcome{}, false
	}
	return r.synthUncoreDead(plan, k0), true
}

// apicFlipDead applies the static APIC liveness rule: bit b of CPU c's
// pending-IRQ word is live only when b names a real domain whose home CPU
// is c (QueueCrossEvents raises exactly domain bits in the home word;
// DeliverIPI tests exactly those). Everything else is write-only state
// that no code path ever consults.
func (r *Runner) apicFlipDead(plan Plan) bool {
	cpuIdx := plan.VCPU
	if cpuIdx < 0 || cpuIdx >= len(r.refHV.CPUs) {
		cpuIdx = 0
	}
	b := int(plan.Bit & 63)
	return b >= len(r.refHV.Domains) || r.refHV.HomeCPU(b) != cpuIdx
}

// pmuFlipDead reports whether a PMU counter flip lands in a bank that is
// not executing the injected activation: the bank's next Arm zeroes the
// counters before its CPU's VM entry can read them (and with signature
// collection off they are never read at all), while nothing reads a
// foreign bank in between.
func (r *Runner) pmuFlipDead(plan Plan) bool {
	cpuIdx := plan.VCPU
	if cpuIdx < 0 || cpuIdx >= len(r.refHV.CPUs) {
		cpuIdx = 0
	}
	exec := r.Golden[plan.Activation].Ev.VCPU
	if exec < 0 || exec >= len(r.refHV.CPUs) {
		exec = 0
	}
	return cpuIdx != exec
}

// ptFlipDead walks the recorded page-table access stream from the flip
// point to the end of the run, proving the flipped word's poison — and any
// register copy a load makes of it — dies before anything can observe it.
// A window word never accessed again is dead too: the window is
// hypervisor-private, so the flip persisting in memory is unobservable
// (dead synthesis makes no fingerprint claim).
func (r *Runner) ptFlipDead(plan Plan, k0 int) bool {
	w := uint16(int(plan.Index) % hv.PageTableWords)
	start := k0
	for a := plan.Activation; a < r.Activations; a++ {
		tr := r.traces[a]
		for _, acc := range r.ptAccs[a] {
			if acc.k < start {
				continue
			}
			if acc.opaque {
				return false
			}
			if acc.word != w {
				continue
			}
			if !acc.load {
				// A store erases the poison — its value is computed from
				// state the flip has not touched (this is the word's first
				// access since the flip). In-window aligned stores cannot
				// fault, but the retirement proof keeps the argument
				// uniform with the register scanner.
				return retiredAt(tr, acc.k)
			}
			if acc.dst == isa.RIP || acc.dst == isa.RFLAGS {
				return false
			}
			if !regDiesWithin(tr, acc.k+1, acc.dst, r.refHV) {
				return false
			}
			// The loaded copy provably dies in the register file before
			// any read; the poisoned word itself lives on — keep scanning
			// for its next access.
		}
		start = 0
	}
	return true
}

// regDiesWithin proves a register's current value is overwritten by a
// retired write before any instruction reads it, within the remainder of
// one activation's trace — the same execution-truth scan the register
// pruner runs, reused for the copy a page-table load smuggles into the
// register file. Survival to the end of the activation bails: the
// dispatch epilogue reads live RAX, and register state crosses activation
// boundaries.
func regDiesWithin(tr regTrace, from int, reg isa.Reg, refHV *hv.Hypervisor) bool {
	for k := from; k < len(tr); k++ {
		reads, writes, ok := refHV.Seg.RegsAt(tr[k].pc)
		if !ok {
			return false
		}
		if reads.Has(reg) {
			return false
		}
		if writes.Has(reg) {
			return retiredAt(tr, k)
		}
	}
	return false
}

// retiredAt proves the instruction at trace index k retired: the next
// entry advanced the local step index (a fault ends the cpu.Run, so a
// fixup-resumed or later run restarts indices at zero).
func retiredAt(tr regTrace, k int) bool {
	return k+1 < len(tr) && tr[k+1].step > tr[k].step
}

// synthUncoreDead synthesizes the outcome of an uncore run the dead
// argument proved observably identical to the reference run, reproducing
// the full engine's bookkeeping bit for bit. k0 is the trace index the
// injection hook fires at (-1: never fires; Activated stays false).
func (r *Runner) synthUncoreDead(plan Plan, k0 int) Outcome {
	a := plan.Activation
	g := &r.Golden[a]
	o := Outcome{Plan: plan, DetectedAt: -1, Pruned: PruneDead}
	var activatedStep uint64
	if k0 >= 0 {
		tr := r.traces[a]
		o.Symbol = r.refHV.SymbolFor(tr[k0].pc)
		activatedStep = tr[k0].step
		// applyUncoreFault always takes hold for in-range APIC/PMU/PT
		// plans (the addresses are always mapped, the flip unconditional).
		o.Activated = true
	}
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
	o.Cause = r.undetectedCause(&o, false, 0)
	return o
}
