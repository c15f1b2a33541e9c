package cpu

import (
	"xentry/internal/isa"
	"xentry/internal/mem"
)

// The flag helpers compute each flag with a short predictable branch
// rather than a branch-free arithmetic chain: on the handler workloads a
// given ALU site's flag pattern is highly stable (counters count one way,
// comparisons resolve the same way for entire loops), so the branches
// predict and the helper costs ~1 cycle instead of the 4-5-cycle
// dependent shift/or chain of the branchless form. The ALU closures the
// threaded translator builds inline these directly; the interpreter's
// semantics table calls the same functions, so both dispatchers share one
// flag definition.

// flagsSub computes RFLAGS for a-b (CMP/SUB semantics).
func flagsSub(a, b uint64) uint64 {
	res := a - b
	var f uint64
	if a < b {
		f = isa.FlagCF
	}
	if res == 0 {
		f |= isa.FlagZF
	}
	if int64(res) < 0 {
		f |= isa.FlagSF
	}
	if int64((a^b)&(a^res)) < 0 {
		f |= isa.FlagOF
	}
	return f
}

// flagsAdd computes RFLAGS for a+b.
func flagsAdd(a, b uint64) uint64 {
	res := a + b
	var f uint64
	if res < a {
		f = isa.FlagCF
	}
	if res == 0 {
		f |= isa.FlagZF
	}
	if int64(res) < 0 {
		f |= isa.FlagSF
	}
	if int64(^(a^b)&(a^res)) < 0 {
		f |= isa.FlagOF
	}
	return f
}

// flagsLogic computes RFLAGS for logical results (CF=OF=0).
func flagsLogic(res uint64) uint64 {
	var f uint64
	if res == 0 {
		f = isa.FlagZF
	}
	if int64(res) < 0 {
		f |= isa.FlagSF
	}
	return f
}

// condIndex packs the four branch-relevant RFLAGS bits into a 4-bit truth-
// table index: bit0=CF, bit1=ZF, bit2=SF, bit3=OF.
func condIndex(flags uint64) uint64 {
	return flags&1 | flags>>5&6 | flags>>8&8
}

// condTruth is one conditional branch's predicate as a 16-entry truth
// table over condIndex. Taken/not-taken is a table lookup, so the threaded
// branch closures carry no per-condition switch.
type condTruth uint16

// taken reports the predicate's value under the given RFLAGS.
func (m condTruth) taken(flags uint64) bool {
	return m>>condIndex(flags)&1 != 0
}

// condEval is the reference predicate definition for each conditional
// branch; condMask tabulates it.
func condEval(op isa.Op, zf, sf, cf, of bool) bool {
	switch op {
	case isa.OpJe:
		return zf
	case isa.OpJne:
		return !zf
	case isa.OpJl:
		return sf != of
	case isa.OpJle:
		return zf || sf != of
	case isa.OpJg:
		return !zf && sf == of
	case isa.OpJge:
		return sf == of
	case isa.OpJb:
		return cf
	case isa.OpJae:
		return !cf
	case isa.OpJs:
		return sf
	case isa.OpJns:
		return !sf
	}
	return false
}

// condMask tabulates a branch predicate over all sixteen flag states.
func condMask(op isa.Op) condTruth {
	var m condTruth
	for i := 0; i < 16; i++ {
		if condEval(op, i&2 != 0, i&4 != 0, i&1 != 0, i&8 != 0) {
			m |= 1 << i
		}
	}
	return m
}

// condMasks caches every opcode's predicate table (zero — never taken —
// for non-branch opcodes).
var condMasks = func() (t [isa.NumOps]condTruth) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		t[op] = condMask(op)
	}
	return
}()

// condition evaluates a conditional-branch predicate against RFLAGS.
func condition(op isa.Op, flags uint64) bool {
	return condMasks[op].taken(flags)
}

// memException maps a memory fault to the architectural exception, using
// the stack-segment vector for stack traffic.
func memException(err error, pc uint64, stack bool) *Exception {
	f, ok := err.(*mem.Fault)
	if !ok {
		return &Exception{Vector: VecGP, PC: pc, Fault: err}
	}
	vec := VecPF
	switch f.Kind {
	case mem.FaultProtection, mem.FaultUnaligned:
		vec = VecGP
	case mem.FaultUnmapped:
		if stack {
			vec = VecSS
		} else {
			vec = VecPF
		}
	}
	return &Exception{Vector: vec, PC: pc, Addr: f.Addr, Fault: f}
}

// loadFault rebuilds the architectural exception for a read the
// allocation-free fast path reported as faulting, by rerunning the access
// through the allocating slow path so the exception is bit-identical to the
// seed interpreter's. It executes only when a fault is about to stop the
// run, never on the per-access hot path.
func (c *CPU) loadFault(addr, pc uint64, stack bool) error {
	if _, err := c.Mem.Read64(addr); err != nil {
		return memException(err, pc, stack)
	}
	// Unreachable: Load just faulted on addr and nothing changed since.
	return &Exception{Vector: VecGP, PC: pc, Addr: addr, Cause: "transient memory fault"}
}

// storeFault is loadFault for writes. Rerunning Write64 is safe: the fast
// path already established that the access faults, so no write lands.
func (c *CPU) storeFault(addr, val, pc uint64, stack bool) error {
	if err := c.Mem.Write64(addr, val); err != nil {
		return memException(err, pc, stack)
	}
	return &Exception{Vector: VecGP, PC: pc, Addr: addr, Cause: "transient memory fault"}
}

// semFn is the architectural semantics of one opcode: execute *in at pc
// with the given remaining budget (≥ 1), write RIP, retire, and return the
// number of dynamic instructions retired (usually 1; rep-movs retires one
// per word; disabled assertions retire 0) plus a sentinel or *Exception
// error on stop.
//
// The table is the single home of per-op behaviour: step (and through it
// the traced and forced-slow loops) dispatches every instruction here, and
// the threaded translator compiles its generic closures over the very same
// entries — so an opcode's semantics cannot drift between dispatchers. The
// translator's specialized closures (threaded.go) restate the hot forms
// with pre-decoded operands; FuzzThreadedVsSwitch holds them to this table.
type semFn func(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error)

// semTable maps every opcode to its semantics; semFor guards the lookup.
var semTable = [isa.NumOps]semFn{
	isa.OpNop:     semNop,
	isa.OpHlt:     semHlt,
	isa.OpVMEntry: semVMEntry,
	isa.OpMovImm:  semMovImm,
	isa.OpMov:     semMov,
	isa.OpAdd:     semAdd,
	isa.OpAddImm:  semAddImm,
	isa.OpSub:     semSub,
	isa.OpSubImm:  semSubImm,
	isa.OpAnd:     semAnd,
	isa.OpAndImm:  semAndImm,
	isa.OpOr:      semOr,
	isa.OpOrImm:   semOrImm,
	isa.OpXor:     semXor,
	isa.OpXorImm:  semXorImm,
	isa.OpShl:     semShl,
	isa.OpShlImm:  semShlImm,
	isa.OpShr:     semShr,
	isa.OpShrImm:  semShrImm,
	isa.OpMul:     semMul,
	isa.OpDiv:     semDiv,
	isa.OpCmp:     semCmp,
	isa.OpCmpImm:  semCmpImm,
	isa.OpTest:    semTest,
	isa.OpTestImm: semTestImm,
	isa.OpJmp:     semJmp,
	isa.OpJmpReg:  semJmpReg,
	isa.OpJe:      semCondBranch,
	isa.OpJne:     semCondBranch,
	isa.OpJl:      semCondBranch,
	isa.OpJle:     semCondBranch,
	isa.OpJg:      semCondBranch,
	isa.OpJge:     semCondBranch,
	isa.OpJb:      semCondBranch,
	isa.OpJae:     semCondBranch,
	isa.OpJs:      semCondBranch,
	isa.OpJns:     semCondBranch,
	isa.OpLoop:    semLoop,
	isa.OpCall:    semCall,
	isa.OpRet:     semRet,
	isa.OpPush:    semPush,
	isa.OpPop:     semPop,
	isa.OpLoad:    semLoad,
	isa.OpStore:   semStore,
	isa.OpRepMovs: semRepMovs,
	isa.OpCpuid:   semCpuid,
	isa.OpRdtsc:   semRdtsc,
	isa.OpOut:     semOut,

	isa.OpAssertEq:    semAssert,
	isa.OpAssertNe:    semAssert,
	isa.OpAssertLe:    semAssert,
	isa.OpAssertGe:    semAssert,
	isa.OpAssertRange: semAssert,
}

// semFor resolves an opcode (valid or not) to its semantics.
func semFor(op isa.Op) semFn {
	if op < isa.NumOps {
		if fn := semTable[op]; fn != nil {
			return fn
		}
	}
	return semInvalid
}

// step executes one instruction at pc through the semantics table.
func (c *CPU) step(pc uint64, in *isa.Instr, budget uint64) (uint64, error) {
	return semFor(in.Op)(c, in, pc, pc+isa.InstrBytes, budget)
}

// semInvalid is the #UD path for undefined opcodes; RIP stays at the
// faulting instruction, as the seed interpreter left it.
func semInvalid(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	c.retire(false, false, false)
	return 1, &Exception{Vector: VecUD, PC: pc, Cause: "invalid opcode"}
}

func semNop(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	c.retire(false, false, false)
	c.Regs[isa.RIP] = next
	return 1, nil
}

func semHlt(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	c.retire(false, false, false)
	c.Regs[isa.RIP] = next
	return 1, errHalt
}

func semVMEntry(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	c.retire(false, false, false)
	c.Regs[isa.RIP] = next
	return 1, errVMEntry
}

func semMovImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	c.Regs[in.Dst] = uint64(in.Imm)
	c.retire(false, false, false)
	c.Regs[isa.RIP] = next
	return 1, nil
}

func semMov(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] = r[in.Src]
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semAdd(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsAdd(r[in.Dst], r[in.Src])
	r[in.Dst] += r[in.Src]
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semAddImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsAdd(r[in.Dst], uint64(in.Imm))
	r[in.Dst] += uint64(in.Imm)
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semSub(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsSub(r[in.Dst], r[in.Src])
	r[in.Dst] -= r[in.Src]
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semSubImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsSub(r[in.Dst], uint64(in.Imm))
	r[in.Dst] -= uint64(in.Imm)
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semAnd(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] &= r[in.Src]
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semAndImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] &= uint64(in.Imm)
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semOr(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] |= r[in.Src]
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semOrImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] |= uint64(in.Imm)
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semXor(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] ^= r[in.Src]
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semXorImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] ^= uint64(in.Imm)
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semShl(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] <<= r[in.Src] & 63
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semShlImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] <<= uint64(in.Imm) & 63
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semShr(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] >>= r[in.Src] & 63
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semShrImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] >>= uint64(in.Imm) & 63
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semMul(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[in.Dst] *= r[in.Src]
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semDiv(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	if r[in.Src] == 0 {
		c.retire(false, false, false)
		return 1, &Exception{Vector: VecDE, PC: pc, Cause: "division by zero"}
	}
	r[in.Dst] /= r[in.Src]
	r[isa.RFLAGS] = flagsLogic(r[in.Dst])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semCmp(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsSub(r[in.Dst], r[in.Src])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semCmpImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsSub(r[in.Dst], uint64(in.Imm))
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semTest(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsLogic(r[in.Dst] & r[in.Src])
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semTestImm(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RFLAGS] = flagsLogic(r[in.Dst] & uint64(in.Imm))
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semJmp(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	c.retire(true, false, false)
	c.Regs[isa.RIP] = uint64(in.Imm)
	return 1, nil
}

func semJmpReg(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	next = r[in.Dst]
	c.retire(true, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semCondBranch(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	if condition(in.Op, r[isa.RFLAGS]) {
		next = uint64(in.Imm)
	}
	c.retire(true, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semLoop(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RCX]--
	if r[isa.RCX] != 0 {
		next = uint64(in.Imm)
	}
	c.retire(true, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semCall(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RSP] -= 8
	if fk := c.Mem.Store(r[isa.RSP], next); fk != mem.FaultNone {
		c.retire(true, false, true)
		return 1, c.storeFault(r[isa.RSP], next, pc, true)
	}
	c.retire(true, false, true)
	r[isa.RIP] = uint64(in.Imm)
	return 1, nil
}

func semRet(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	ret, fk := c.Mem.Load(r[isa.RSP])
	if fk != mem.FaultNone {
		c.retire(true, true, false)
		return 1, c.loadFault(r[isa.RSP], pc, true)
	}
	r[isa.RSP] += 8
	c.retire(true, true, false)
	r[isa.RIP] = ret
	return 1, nil
}

func semPush(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RSP] -= 8
	if fk := c.Mem.Store(r[isa.RSP], r[in.Src]); fk != mem.FaultNone {
		c.retire(false, false, true)
		return 1, c.storeFault(r[isa.RSP], r[in.Src], pc, true)
	}
	c.retire(false, false, true)
	r[isa.RIP] = next
	return 1, nil
}

func semPop(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	v, fk := c.Mem.Load(r[isa.RSP])
	if fk != mem.FaultNone {
		c.retire(false, true, false)
		return 1, c.loadFault(r[isa.RSP], pc, true)
	}
	r[in.Dst] = v
	r[isa.RSP] += 8
	c.retire(false, true, false)
	r[isa.RIP] = next
	return 1, nil
}

func semLoad(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	v, fk := c.Mem.Load(r[in.Base] + uint64(in.Imm))
	if fk != mem.FaultNone {
		c.retire(false, true, false)
		return 1, c.loadFault(r[in.Base]+uint64(in.Imm), pc, false)
	}
	r[in.Dst] = v
	c.retire(false, true, false)
	r[isa.RIP] = next
	return 1, nil
}

func semStore(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	if fk := c.Mem.Store(r[in.Base]+uint64(in.Imm), r[in.Src]); fk != mem.FaultNone {
		c.retire(false, false, true)
		return 1, c.storeFault(r[in.Base]+uint64(in.Imm), r[in.Src], pc, false)
	}
	c.retire(false, false, true)
	r[isa.RIP] = next
	return 1, nil
}

// semRepMovs copies RCX words from [RSI] to [RDI]; each word retires as one
// instruction so a corrupted count visibly lengthens the trace. The
// instruction is restartable: on budget exhaustion RIP stays put and the
// outer loop reports the hang.
func semRepMovs(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	var retired uint64
	for r[isa.RCX] != 0 {
		if retired >= budget {
			r[isa.RIP] = pc
			return retired, nil
		}
		v, fk := c.Mem.Load(r[isa.RSI])
		if fk != mem.FaultNone {
			c.retire(false, true, false)
			return retired + 1, c.loadFault(r[isa.RSI], pc, false)
		}
		if fk := c.Mem.Store(r[isa.RDI], v); fk != mem.FaultNone {
			c.retire(false, true, true)
			return retired + 1, c.storeFault(r[isa.RDI], v, pc, false)
		}
		r[isa.RSI] += 8
		r[isa.RDI] += 8
		r[isa.RCX]--
		c.retire(false, true, true)
		retired++
	}
	if retired == 0 {
		// rep with rcx==0 still retires the instruction itself.
		c.retire(false, false, false)
		retired = 1
	}
	r[isa.RIP] = next
	return retired, nil
}

func semCpuid(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	res := c.CpuidTable[r[isa.RAX]]
	r[isa.RAX], r[isa.RBX], r[isa.RCX], r[isa.RDX] = res[0], res[1], res[2], res[3]
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semRdtsc(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	r[isa.RAX] = c.TSC & 0xFFFFFFFF
	r[isa.RDX] = c.TSC >> 32
	c.retire(false, false, false)
	r[isa.RIP] = next
	return 1, nil
}

func semOut(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	if c.OutHook != nil {
		c.OutHook(in.Imm, c.Regs[in.Src])
	}
	c.retire(false, false, true)
	c.Regs[isa.RIP] = next
	return 1, nil
}

func semAssert(c *CPU, in *isa.Instr, pc, next, budget uint64) (uint64, error) {
	r := &c.Regs
	if !c.AssertsEnabled {
		// Compiled out: no cost, no retirement.
		r[isa.RIP] = next
		return 0, nil
	}
	c.retire(false, false, false)
	ok := true
	v := r[in.Dst]
	switch in.Op {
	case isa.OpAssertEq:
		ok = v == uint64(in.Imm)
	case isa.OpAssertNe:
		ok = v != uint64(in.Imm)
	case isa.OpAssertLe:
		ok = v <= uint64(in.Imm)
	case isa.OpAssertGe:
		ok = v >= uint64(in.Imm)
	case isa.OpAssertRange:
		ok = v >= r[in.Src] && v <= uint64(in.Imm)
	}
	r[isa.RIP] = next
	if !ok {
		return 1, errAssert
	}
	return 1, nil
}
