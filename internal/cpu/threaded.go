package cpu

import (
	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/perf"
)

// This file implements direct-threaded execution of linked text: at first
// run each Segment is translated, once, into a PC-indexed slice of
// specialized op closures, so the steady-state loop is
//
//	next, retired, err = code[off/isa.InstrBytes](c, budget-steps)
//
// with no switch on the opcode, no operand re-extraction, and no
// flag-helper branches on the common immediate forms — every operand an
// instruction consumes was captured (pre-decoded, isa.Predecode) when its
// closure was built. Two dispatch-level liberties distinguish the threaded
// loop from the interpreter, both invisible to architectural state:
//
//   - Chained PC: closures return the successor PC in a register, so the
//     loop never loads RIP back out of the register file (a store-to-load
//     forwarding stall on every dispatch).
//   - Deferred RIP: closures do not store the fallthrough PC into RIP at
//     all. The loop writes RIP exactly where it becomes observable — at
//     budget exhaustion and on fetch faults — and every closure restores
//     interpreter-exact RIP on its own fault paths. Instructions that name
//     RIP as an operand (reading it, or clobbering it as an ALU/load
//     destination the interpreter would immediately overwrite) are
//     translated to the interpreter-exact generic form instead, as is
//     every cold op, so any instruction that could observe RIP sees
//     precisely the interpreter's value.
//
// A peephole pass additionally fuses the dominant dynamic pairs observed
// on the seed workloads (cmd/xentry-pairs) into superinstructions:
// compare+conditional-branch, load+ALU, ALU-imm+store, and the rep-string
// body that already retires per word without re-entering dispatch. When a
// straight-line pair is followed by an unconditional direct jump — the
// dominant loop shape — the jump is folded into the pair's success path,
// closing the whole loop body at one dispatch per fused pair (followJmp).
// Fused bodies coalesce their PMU retirement into one update per pair; the
// counters are only ever observed after Run stops (rdtsc reads the TSC,
// which cannot happen mid-pair), so totals are all that is architectural.
//
// Threaded execution is a pure dispatch-layer change: same retirement
// totals, same flag/register write order, same exception identity and
// RIP-on-stop placement, same budget semantics as the semantics table in
// exec.go — and FuzzThreadedVsSwitch plus the dispatch column of the
// equivalence matrix in internal/inject hold it to that. The traced loop
// keeps dispatching through semTable, so PreStep hooks observe the
// one-instruction-at-a-time interpreter bit for bit.

// opFn executes one translated instruction (or fused pair). budget is the
// remaining instruction budget, always ≥ 1; only the rep-string body and
// fused pairs consume it. It returns the successor PC, the dynamic
// instructions retired, and a sentinel or *Exception error on stop,
// exactly as semFn does.
type opFn func(c *CPU, budget uint64) (next uint64, retired uint64, err error)

// TranslationVersion identifies the translator's output format: the
// superinstruction set and the closure calling convention. It is part of
// the cached translation's key, so a Segment translated by an older
// translator (a checkpoint-restored process image, a future live-upgrade)
// can never serve stale threaded code — the version mismatch forces
// retranslation. Bump it whenever the fusion rules or opFn semantics
// change.
const TranslationVersion = 5

// translationVersion is the live version the cache validates against. It
// is a variable only so tests can simulate a version bump and prove the
// eviction path; everywhere else it equals TranslationVersion.
var translationVersion uint32 = TranslationVersion

// translation is one cached translator output, keyed by the version that
// produced it.
type translation struct {
	version uint32
	code    []opFn
}

// threadedCode returns the segment's direct-threaded code, translating on
// first use. The translation is immutable and published through an atomic
// pointer, so concurrent CPUs sharing one linked text (the campaign
// workers all run off the process-wide linkCache segment) race at worst
// into building duplicate, identical translations — the last store wins
// and both are correct.
func (s *Segment) threadedCode() []opFn {
	if t := s.trans.Load(); t != nil && t.version == translationVersion {
		return t.code
	}
	t := &translation{version: translationVersion, code: translate(s)}
	s.trans.Store(t)
	return t.code
}

// translate compiles every instruction slot, fusing eligible pairs. The
// second instruction of a fused pair keeps its own independently compiled
// slot: a branch landing on it (or a budget boundary splitting the pair)
// enters it exactly as the interpreter would, so fusion never changes
// which addresses are executable.
func translate(s *Segment) []opFn {
	code := make([]opFn, len(s.instrs))
	for i := range code {
		if fn := fuseLoopBody(s, i); fn != nil {
			code[i] = fn
			continue
		}
		if i+1 < len(code) {
			if fn := fusePair(s, i); fn != nil {
				code[i] = fn
				continue
			}
		}
		code[i] = compileOne(s, i)
	}
	return code
}

// runThreaded is the untraced steady-state loop over a translated segment.
// Fetch-fault classification matches Segment.FetchInstr: out-of-segment
// first (#PF), then off-boundary (#UD). The off computation relies on
// uint64 underflow to fold pc < Base into the single bounds test, and the
// idx-first comparison lets the compiler elide the slice bounds check on
// the dispatch load. RIP is materialized at the two places the loop makes
// it observable: budget exhaustion and fetch faults; closures handle their
// own stop paths.
func (c *CPU) runThreaded(budget uint64) RunResult {
	seg := c.Text
	code := seg.threadedCode()
	base := seg.Base
	limit := uint64(len(code)) * isa.InstrBytes
	pc := c.Regs[isa.RIP]
	var steps uint64
	for steps < budget {
		off := pc - base
		idx := off / isa.InstrBytes
		if idx >= uint64(len(code)) || off%isa.InstrBytes != 0 {
			c.Regs[isa.RIP] = pc
			if off >= limit {
				return fetchStop(FetchUnmapped, pc, steps)
			}
			return fetchStop(FetchMisaligned, pc, steps)
		}
		next, retired, err := code[idx](c, budget-steps)
		steps += retired
		if err != nil {
			return stepStop(err, steps, pc)
		}
		pc = next
	}
	c.Regs[isa.RIP] = pc
	return RunResult{Reason: StopBudget, Steps: steps}
}

// touchesRIP reports whether the instruction names RIP in any operand
// slot. Such instructions either read RIP (which the deferred-RIP loop
// does not keep current) or write it as a destination the interpreter
// would immediately overwrite, so they are always translated to the
// interpreter-exact generic form. Unused operand fields can hold anything
// the assembler left there; a false positive merely costs that one
// instruction its specialization.
func touchesRIP(p isa.Pre) bool {
	return p.Dst == isa.RIP || p.Src == isa.RIP || p.Base == isa.RIP
}

// touchesFlags reports whether the instruction names RFLAGS in any
// operand slot. The loop-body chain computes the interior ALU-imm's flag
// result lazily (it is dead on the full path), which is only sound when
// no instruction in the chain can read or write RFLAGS through an operand
// — aliasing encodings fall back to pair fusion, which keeps the
// interpreter's exact write order.
func touchesFlags(p isa.Pre) bool {
	return p.Dst == isa.RFLAGS || p.Src == isa.RFLAGS || p.Base == isa.RFLAGS
}

// fusableCmp reports whether op is a flags-only comparison (writes RFLAGS,
// no GPR, cannot fault) — the safe first half of a compare+branch pair.
func fusableCmp(op isa.Op) bool {
	switch op {
	case isa.OpCmp, isa.OpCmpImm, isa.OpTest, isa.OpTestImm:
		return true
	}
	return false
}

// condBranch reports whether op is one of the ten conditional branches.
func condBranch(op isa.Op) bool {
	switch op {
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJae, isa.OpJs, isa.OpJns:
		return true
	}
	return false
}

// fusableALU reports whether op is a reg-reg ALU op that cannot fault —
// the safe second half of a load+ALU pair. Div is excluded (it raises #DE
// and its fault must carry the ALU instruction's own PC).
func fusableALU(op isa.Op) bool {
	switch op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMul:
		return true
	}
	return false
}

// fusableALUImm reports whether op is a reg-imm ALU op that cannot fault —
// the safe first half of an ALU-imm+store pair.
func fusableALUImm(op isa.Op) bool {
	switch op {
	case isa.OpAddImm, isa.OpSubImm, isa.OpAndImm, isa.OpOrImm, isa.OpXorImm:
		return true
	}
	return false
}

// fusePair returns a superinstruction for the pair starting at slot i, or
// nil when the pair is not in the fusion set. The set is the dominant
// dynamic pairs profiled on the seed workloads by cmd/xentry-pairs
// (compare+branch dominates the handler loops, load+ALU and ALU-imm+store
// dominate the copy/accumulate bodies). Guards:
//
//   - Neither half may name RIP in any operand slot (touchesRIP): the
//     interpreter makes the intermediate RIP architecturally visible
//     between the two instructions, and under deferred RIP a fused body
//     would expose a stale value.
//   - The first half's non-fault path and the second half's execution must
//     not redirect control flow away from the pair (comparisons and ALU
//     ops fall through by construction; the conditional branch is the
//     designed exception).
//
// Every fused body re-checks the remaining budget after the first
// retirement and stops at the seam exactly as the interpreter does when
// its budget runs out between the two instructions.
func fusePair(s *Segment, i int) opFn {
	a := isa.Predecode(s.instrs[i], s.Base+uint64(i)*isa.InstrBytes)
	b := isa.Predecode(s.instrs[i+1], s.Base+uint64(i+1)*isa.InstrBytes)
	if touchesRIP(a) || touchesRIP(b) {
		return nil
	}
	switch {
	case fusableCmp(a.Op) && condBranch(b.Op):
		return fuseCmpBranch(a, b)
	case a.Op == isa.OpLoad && fusableALU(b.Op):
		jt, fold := followJmp(s, i+2)
		return fuseLoadALU(a, b, jt, fold)
	case fusableALUImm(a.Op) && b.Op == isa.OpStore:
		jt, fold := followJmp(s, i+2)
		return fuseALUImmStore(a, b, jt, fold)
	}
	return nil
}

// followJmp inspects the slot after a fused pair and, when it holds an
// unconditional direct jump, returns (target, true) so the pair's success
// path can fold the jump — retiring it in the same dispatch and chaining
// straight to its target. This closes the dominant loop shape (straight-
// line body, backward jmp) at one dispatch per fused pair instead of two.
// The jump keeps its own independently compiled slot for branches that
// land on it directly. Folding is skipped when the remaining budget does
// not cover all three instructions, so budget seams match the interpreter.
func followJmp(s *Segment, i int) (uint64, bool) {
	if i >= len(s.instrs) {
		return 0, false
	}
	j := isa.Predecode(s.instrs[i], s.Base+uint64(i)*isa.InstrBytes)
	if j.Op != isa.OpJmp || touchesRIP(j) {
		return 0, false
	}
	return j.UImm, true
}

// fuseLoopBody builds the top dynamic chain from the pair profile
// (cmd/xentry-pairs): addi+store+load+add, optionally closed by a folded
// unconditional jump — the pointer-bump/copy/accumulate loop body that
// dominates the handler workloads. One dispatch runs the whole body. The
// chain is the composition of the fuseALUImmStore and fuseLoadALU rules,
// with the same seam discipline extended to every interior budget
// boundary: entered with budget k < body length, it executes exactly k
// instructions, charges exactly their retirement, and returns the PC the
// interpreter would have stopped at. Fault paths carry the faulting
// instruction's own PC and leave RIP exactly where the interpreter's
// per-instruction RIP writes would have (the preceding instruction's
// fallthrough). All four slots must pass the touchesRIP guard; each
// interior instruction keeps its own independently compiled slot for
// branches that land mid-body.
func fuseLoopBody(s *Segment, i int) opFn {
	if i+3 >= len(s.instrs) {
		return nil
	}
	pre := func(k int) isa.Pre {
		return isa.Predecode(s.instrs[i+k], s.Base+uint64(i+k)*isa.InstrBytes)
	}
	a, b, l, d := pre(0), pre(1), pre(2), pre(3)
	if a.Op != isa.OpAddImm || b.Op != isa.OpStore ||
		l.Op != isa.OpLoad || d.Op != isa.OpAdd {
		return nil
	}
	if touchesRIP(a) || touchesRIP(b) || touchesRIP(l) || touchesRIP(d) ||
		touchesFlags(a) || touchesFlags(b) || touchesFlags(l) || touchesFlags(d) {
		return nil
	}
	jt, fold := followJmp(s, i+4)
	ad, imm := a.Dst, a.UImm
	ss, sb, sdisp, spc := b.Src, b.Base, b.UImm, b.PC
	ld, lb, ldisp, lpc := l.Dst, l.Base, l.UImm, l.PC
	dd, ds := d.Dst, d.Src
	mid1, mid2, mid3, next := a.Next, b.Next, l.Next, d.Next
	return func(c *CPU, budget uint64) (uint64, uint64, error) {
		r := &c.Regs
		// The ALU-imm's flag result is dead on the full path — the trailing
		// add overwrites RFLAGS before anything can observe it — so it is
		// only materialized on the exits where the interpreter's value is
		// architecturally visible: interior budget seams and memory faults.
		// The touchesFlags guard above makes the deferral sound.
		oa := r[ad]
		r[ad] = oa + imm
		if budget < 2 {
			r[isa.RFLAGS] = flagsAdd(oa, imm)
			c.retire(false, false, false)
			return mid1, 1, nil
		}
		addr := r[sb] + sdisp
		if !c.Mem.StoreHit(addr, r[ss]) {
			if fk := c.Mem.Store(addr, r[ss]); fk != mem.FaultNone {
				r[isa.RFLAGS] = flagsAdd(oa, imm)
				c.TSC += 2
				c.pend[perf.StoresRetired]++
				r[isa.RIP] = mid1
				return 0, 2, c.storeFault(addr, r[ss], spc, false)
			}
		}
		if budget < 3 {
			r[isa.RFLAGS] = flagsAdd(oa, imm)
			c.TSC += 2
			c.pend[perf.StoresRetired]++
			return mid2, 2, nil
		}
		laddr := r[lb] + ldisp
		v, ok := c.Mem.LoadHit(laddr)
		if !ok {
			var fk mem.FaultKind
			if v, fk = c.Mem.Load(laddr); fk != mem.FaultNone {
				r[isa.RFLAGS] = flagsAdd(oa, imm)
				c.TSC += 3
				c.pend[perf.StoresRetired]++
				c.pend[perf.LoadsRetired]++
				r[isa.RIP] = mid2
				return 0, 3, c.loadFault(laddr, lpc, false)
			}
		}
		r[ld] = v
		if budget < 4 {
			r[isa.RFLAGS] = flagsAdd(oa, imm)
			c.TSC += 3
			c.pend[perf.StoresRetired]++
			c.pend[perf.LoadsRetired]++
			return mid3, 3, nil
		}
		r[isa.RFLAGS] = flagsAdd(r[dd], r[ds])
		r[dd] += r[ds]
		if fold && budget > 4 {
			c.TSC += 5
			c.pend[perf.StoresRetired]++
			c.pend[perf.LoadsRetired]++
			c.pend[perf.BranchRetired]++
			return jt, 5, nil
		}
		c.TSC += 4
		c.pend[perf.StoresRetired]++
		c.pend[perf.LoadsRetired]++
		return next, 4, nil
	}
}

// retirePair charges two retired instructions in one update: the TSC is
// read only by rdtsc, which never sits inside a fused pair, so
// per-instruction increment order inside a fused body is not
// architectural — totals are. INST_RETIRED is
// charged from RunResult.Steps at the flush point, exactly as retire.
func (c *CPU) retirePair() {
	c.TSC += 2
}

// fuseCmpBranch builds the compare+conditional-branch superinstruction.
// The hot immediate forms get dedicated bodies; the branch predicate is a
// translation-time truth table, so the fused pair runs with no per-
// condition switch at all.
func fuseCmpBranch(a, b isa.Pre) opFn {
	dst, src, imm := a.Dst, a.Src, a.UImm
	mask := condMask(b.Op)
	target, mid, next := b.UImm, a.Next, b.Next
	branch := func(c *CPU, f, budget uint64) (uint64, uint64, error) {
		r := &c.Regs
		r[isa.RFLAGS] = f
		if budget < 2 {
			c.retire(false, false, false)
			return mid, 1, nil
		}
		nx := next
		if mask.taken(f) {
			nx = target
		}
		c.retirePair()
		c.pend[perf.BranchRetired]++
		return nx, 2, nil
	}
	switch a.Op {
	case isa.OpCmpImm:
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			return branch(c, flagsSub(c.Regs[dst], imm), budget)
		}
	case isa.OpTestImm:
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			return branch(c, flagsLogic(c.Regs[dst]&imm), budget)
		}
	case isa.OpCmp:
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			return branch(c, flagsSub(c.Regs[dst], c.Regs[src]), budget)
		}
	default: // isa.OpTest
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			return branch(c, flagsLogic(c.Regs[dst]&c.Regs[src]), budget)
		}
	}
}

// fuseLoadALU builds the load+ALU superinstruction. The dominant pair on
// the seed workloads (load+add, the accumulate body) gets a dedicated
// closure; the remaining ALU ops share a captured-op body. The fault path
// carries the load's own PC so hypervisor exception fixups keyed by the
// protected load address still resolve.
func fuseLoadALU(a, b isa.Pre, jt uint64, fold bool) opFn {
	ld, lb, disp, pc := a.Dst, a.Base, a.UImm, a.PC
	op, db, sb := b.Op, b.Dst, b.Src
	mid, next := a.Next, b.Next
	if op == isa.OpAdd {
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			addr := r[lb] + disp
			v, ok := c.Mem.LoadHit(addr)
			if !ok {
				var fk mem.FaultKind
				if v, fk = c.Mem.Load(addr); fk != mem.FaultNone {
					c.retire(false, true, false)
					r[isa.RIP] = pc
					return 0, 1, c.loadFault(addr, pc, false)
				}
			}
			r[ld] = v
			if budget < 2 {
				c.retire(false, true, false)
				return mid, 1, nil
			}
			r[isa.RFLAGS] = flagsAdd(r[db], r[sb])
			r[db] += r[sb]
			c.retirePair()
			c.pend[perf.LoadsRetired]++
			if fold && budget > 2 {
				c.retire(true, false, false)
				return jt, 3, nil
			}
			return next, 2, nil
		}
	}
	return func(c *CPU, budget uint64) (uint64, uint64, error) {
		r := &c.Regs
		addr := r[lb] + disp
		v, ok := c.Mem.LoadHit(addr)
		if !ok {
			var fk mem.FaultKind
			if v, fk = c.Mem.Load(addr); fk != mem.FaultNone {
				c.retire(false, true, false)
				r[isa.RIP] = pc
				return 0, 1, c.loadFault(addr, pc, false)
			}
		}
		r[ld] = v
		if budget < 2 {
			c.retire(false, true, false)
			return mid, 1, nil
		}
		switch op {
		case isa.OpSub:
			r[isa.RFLAGS] = flagsSub(r[db], r[sb])
			r[db] -= r[sb]
		case isa.OpAnd:
			r[db] &= r[sb]
			r[isa.RFLAGS] = flagsLogic(r[db])
		case isa.OpOr:
			r[db] |= r[sb]
			r[isa.RFLAGS] = flagsLogic(r[db])
		case isa.OpXor:
			r[db] ^= r[sb]
			r[isa.RFLAGS] = flagsLogic(r[db])
		default: // isa.OpMul
			r[db] *= r[sb]
			r[isa.RFLAGS] = flagsLogic(r[db])
		}
		c.retirePair()
		c.pend[perf.LoadsRetired]++
		if fold && budget > 2 {
			c.retire(true, false, false)
			return jt, 3, nil
		}
		return next, 2, nil
	}
}

// fuseALUImmStore builds the ALU-imm+store superinstruction (the pointer-
// bump-then-store body of the copy loops). The ALU half cannot fault; the
// store fault carries the store's own PC and leaves RIP advanced past the
// ALU half, exactly where the interpreter would have put it.
func fuseALUImmStore(a, b isa.Pre, jt uint64, fold bool) opFn {
	aOp, ad, imm := a.Op, a.Dst, a.UImm
	ss, sb, disp := b.Src, b.Base, b.UImm
	spc, mid, next := b.PC, a.Next, b.Next
	store := func(c *CPU, budget uint64) (uint64, uint64, error) {
		r := &c.Regs
		if budget < 2 {
			c.retire(false, false, false)
			return mid, 1, nil
		}
		addr := r[sb] + disp
		if !c.Mem.StoreHit(addr, r[ss]) {
			if fk := c.Mem.Store(addr, r[ss]); fk != mem.FaultNone {
				c.retirePair()
				c.pend[perf.StoresRetired]++
				r[isa.RIP] = mid
				return 0, 2, c.storeFault(addr, r[ss], spc, false)
			}
		}
		c.retirePair()
		c.pend[perf.StoresRetired]++
		if fold && budget > 2 {
			c.retire(true, false, false)
			return jt, 3, nil
		}
		return next, 2, nil
	}
	switch aOp {
	case isa.OpAddImm:
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsAdd(r[ad], imm)
			r[ad] += imm
			return store(c, budget)
		}
	case isa.OpSubImm:
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsSub(r[ad], imm)
			r[ad] -= imm
			return store(c, budget)
		}
	case isa.OpAndImm:
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[ad] &= imm
			r[isa.RFLAGS] = flagsLogic(r[ad])
			return store(c, budget)
		}
	case isa.OpOrImm:
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[ad] |= imm
			r[isa.RFLAGS] = flagsLogic(r[ad])
			return store(c, budget)
		}
	default: // isa.OpXorImm
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[ad] ^= imm
			r[isa.RFLAGS] = flagsLogic(r[ad])
			return store(c, budget)
		}
	}
}

// compileOne builds the closure for the single instruction at slot i.
// Every specialized body is the statement sequence of the corresponding
// semTable entry with operands captured at translation time and the
// fallthrough RIP store deferred to the loop. Ops off the hot path (div,
// jmpr, cpuid, rdtsc, out, asserts, hlt, vmentry, invalid encodings) and
// any instruction naming RIP as an operand fall through to a generic
// interpreter-exact closure over their semTable entry, so their semantics
// live in exactly one place.
func compileOne(s *Segment, i int) opFn {
	in := &s.instrs[i]
	p := isa.Predecode(*in, s.Base+uint64(i)*isa.InstrBytes)
	if touchesRIP(p) {
		return compileGeneric(in, p)
	}
	switch p.Op {
	case isa.OpNop:
		next := p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpMovImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			c.Regs[dst] = imm
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpMov:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] = r[src]
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpAdd:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsAdd(r[dst], r[src])
			r[dst] += r[src]
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpAddImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsAdd(r[dst], imm)
			r[dst] += imm
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpSub:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsSub(r[dst], r[src])
			r[dst] -= r[src]
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpSubImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsSub(r[dst], imm)
			r[dst] -= imm
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpAnd:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] &= r[src]
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpAndImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] &= imm
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpOr:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] |= r[src]
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpOrImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] |= imm
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpXor:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] ^= r[src]
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpXorImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] ^= imm
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpShl:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] <<= r[src] & 63
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpShlImm:
		// The shift count is pre-masked at translation time.
		dst, sh, next := p.Dst, p.UImm&63, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] <<= sh
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpShr:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] >>= r[src] & 63
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpShrImm:
		dst, sh, next := p.Dst, p.UImm&63, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] >>= sh
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpMul:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[dst] *= r[src]
			r[isa.RFLAGS] = flagsLogic(r[dst])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpCmp:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsSub(r[dst], r[src])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpCmpImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsSub(r[dst], imm)
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpTest:
		dst, src, next := p.Dst, p.Src, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsLogic(r[dst] & r[src])
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpTestImm:
		dst, imm, next := p.Dst, p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RFLAGS] = flagsLogic(r[dst] & imm)
			c.retire(false, false, false)
			return next, 1, nil
		}

	case isa.OpJmp:
		target := p.UImm
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			c.retire(true, false, false)
			return target, 1, nil
		}

	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJae, isa.OpJs, isa.OpJns:
		mask := condMask(p.Op)
		target, next := p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			nx := next
			if mask.taken(c.Regs[isa.RFLAGS]) {
				nx = target
			}
			c.retire(true, false, false)
			return nx, 1, nil
		}

	case isa.OpLoop:
		target, next := p.UImm, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RCX]--
			nx := next
			if r[isa.RCX] != 0 {
				nx = target
			}
			c.retire(true, false, false)
			return nx, 1, nil
		}

	case isa.OpCall:
		target, pc, next := p.UImm, p.PC, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RSP] -= 8
			if !c.Mem.StoreHit(r[isa.RSP], next) {
				if fk := c.Mem.Store(r[isa.RSP], next); fk != mem.FaultNone {
					c.retire(true, false, true)
					r[isa.RIP] = pc
					return 0, 1, c.storeFault(r[isa.RSP], next, pc, true)
				}
			}
			c.retire(true, false, true)
			return target, 1, nil
		}

	case isa.OpRet:
		pc := p.PC
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			ret, ok := c.Mem.LoadHit(r[isa.RSP])
			if !ok {
				var fk mem.FaultKind
				if ret, fk = c.Mem.Load(r[isa.RSP]); fk != mem.FaultNone {
					c.retire(true, true, false)
					r[isa.RIP] = pc
					return 0, 1, c.loadFault(r[isa.RSP], pc, true)
				}
			}
			r[isa.RSP] += 8
			c.retire(true, true, false)
			return ret, 1, nil
		}

	case isa.OpPush:
		src, pc, next := p.Src, p.PC, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			r[isa.RSP] -= 8
			if !c.Mem.StoreHit(r[isa.RSP], r[src]) {
				if fk := c.Mem.Store(r[isa.RSP], r[src]); fk != mem.FaultNone {
					c.retire(false, false, true)
					r[isa.RIP] = pc
					return 0, 1, c.storeFault(r[isa.RSP], r[src], pc, true)
				}
			}
			c.retire(false, false, true)
			return next, 1, nil
		}

	case isa.OpPop:
		dst, pc, next := p.Dst, p.PC, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			v, ok := c.Mem.LoadHit(r[isa.RSP])
			if !ok {
				var fk mem.FaultKind
				if v, fk = c.Mem.Load(r[isa.RSP]); fk != mem.FaultNone {
					c.retire(false, true, false)
					r[isa.RIP] = pc
					return 0, 1, c.loadFault(r[isa.RSP], pc, true)
				}
			}
			r[dst] = v
			r[isa.RSP] += 8
			c.retire(false, true, false)
			return next, 1, nil
		}

	case isa.OpLoad:
		dst, base, disp, pc, next := p.Dst, p.Base, p.UImm, p.PC, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			addr := r[base] + disp
			v, ok := c.Mem.LoadHit(addr)
			if !ok {
				var fk mem.FaultKind
				if v, fk = c.Mem.Load(addr); fk != mem.FaultNone {
					c.retire(false, true, false)
					r[isa.RIP] = pc
					return 0, 1, c.loadFault(addr, pc, false)
				}
			}
			r[dst] = v
			c.retire(false, true, false)
			return next, 1, nil
		}

	case isa.OpStore:
		src, base, disp, pc, next := p.Src, p.Base, p.UImm, p.PC, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			addr := r[base] + disp
			if !c.Mem.StoreHit(addr, r[src]) {
				if fk := c.Mem.Store(addr, r[src]); fk != mem.FaultNone {
					c.retire(false, false, true)
					r[isa.RIP] = pc
					return 0, 1, c.storeFault(addr, r[src], pc, false)
				}
			}
			c.retire(false, false, true)
			return next, 1, nil
		}

	case isa.OpRepMovs:
		// The dedicated rep-string body: the per-word loop never re-enters
		// dispatch, and restartability matches semRepMovs — on budget
		// exhaustion RIP stays at pc and repCut records the split.
		pc, next := p.PC, p.Next
		return func(c *CPU, budget uint64) (uint64, uint64, error) {
			r := &c.Regs
			var retired uint64
			for r[isa.RCX] != 0 {
				if retired >= budget {
					c.repCut = true
					return pc, retired, nil
				}
				v, ok := c.Mem.LoadHit(r[isa.RSI])
				if !ok {
					var fk mem.FaultKind
					if v, fk = c.Mem.Load(r[isa.RSI]); fk != mem.FaultNone {
						c.retire(false, true, false)
						r[isa.RIP] = pc
						return 0, retired + 1, c.loadFault(r[isa.RSI], pc, false)
					}
				}
				if !c.Mem.StoreHit(r[isa.RDI], v) {
					if fk := c.Mem.Store(r[isa.RDI], v); fk != mem.FaultNone {
						c.retire(false, true, true)
						r[isa.RIP] = pc
						return 0, retired + 1, c.storeFault(r[isa.RDI], v, pc, false)
					}
				}
				r[isa.RSI] += 8
				r[isa.RDI] += 8
				r[isa.RCX]--
				c.retire(false, true, true)
				retired++
			}
			if retired == 0 {
				c.retire(false, false, false)
				retired = 1
			}
			return next, retired, nil
		}

	default:
		return compileGeneric(in, p)
	}
}

// compileGeneric is the interpreter-exact translation: materialize RIP
// (the semantics table may read it through any operand), dispatch through
// the instruction's semTable entry, and read the successor back. Cold ops
// (div, jmpr, cpuid, rdtsc, out, asserts, hlt, vmentry, invalid encodings)
// and RIP-operand instructions land here, so their semantics exist in
// exactly one place. The Instr pointer targets the segment's immutable
// instruction slice — no copy, no per-execution allocation.
func compileGeneric(in *isa.Instr, p isa.Pre) opFn {
	fn := semFor(p.Op)
	pc, next := p.PC, p.Next
	return func(c *CPU, budget uint64) (uint64, uint64, error) {
		c.Regs[isa.RIP] = pc
		retired, err := fn(c, in, pc, next, budget)
		return c.Regs[isa.RIP], retired, err
	}
}
