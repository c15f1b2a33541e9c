package isa

// Register read/write sets per instruction, including implicit operands
// (RSP for stack traffic, RCX/RSI/RDI for string moves, RFLAGS for
// conditional branches and ALU results). The fault-injection framework uses
// these to decide whether a flipped register is *activated* — read before
// its next overwrite — which the paper distinguishes from non-activated
// errors that are architecturally masked.
//
// RIP is excluded from both sets: a flip in RIP is always activated at the
// next fetch and is handled specially by the injector.

// RegSet is a set of registers, bit r standing for register r. The
// activation analysis tests membership on every traced instruction, so a
// set is a word, not a slice.
type RegSet uint32

// regBit is r's member bit. A shift by the word width or more is zero in
// Go, so a NoReg (0xFF) operand contributes no member.
func regBit(r Reg) RegSet { return 1 << r }

// Has reports whether r is a member.
func (s RegSet) Has(r Reg) bool { return s&regBit(r) != 0 }

// Reads returns the registers the instruction reads.
func (in Instr) Reads() RegSet {
	switch in.Op {
	case OpNop, OpHlt, OpMovImm, OpJmp, OpVMEntry:
		return 0
	case OpMov:
		return regBit(in.Src)
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv:
		return regBit(in.Dst) | regBit(in.Src)
	case OpAddImm, OpSubImm, OpAndImm, OpOrImm, OpXorImm, OpShlImm, OpShrImm:
		return regBit(in.Dst)
	case OpCmp, OpTest:
		return regBit(in.Dst) | regBit(in.Src)
	case OpCmpImm, OpTestImm:
		return regBit(in.Dst)
	case OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJae, OpJs, OpJns:
		return regBit(RFLAGS)
	case OpJmpReg:
		return regBit(in.Dst)
	case OpLoop:
		return regBit(RCX)
	case OpCall:
		return regBit(RSP)
	case OpRet:
		return regBit(RSP)
	case OpPush:
		return regBit(in.Src) | regBit(RSP)
	case OpPop:
		return regBit(RSP)
	case OpLoad:
		return regBit(in.Base)
	case OpStore:
		return regBit(in.Src) | regBit(in.Base)
	case OpRepMovs:
		return regBit(RCX) | regBit(RSI) | regBit(RDI)
	case OpCpuid:
		return regBit(RAX)
	case OpRdtsc:
		return 0
	case OpOut:
		return regBit(in.Src)
	case OpAssertEq, OpAssertNe, OpAssertLe, OpAssertGe:
		return regBit(in.Dst)
	case OpAssertRange:
		return regBit(in.Dst) | regBit(in.Src)
	}
	return 0
}

// Writes returns the registers the instruction writes.
func (in Instr) Writes() RegSet {
	switch in.Op {
	case OpMovImm, OpMov, OpPop, OpLoad:
		if in.Op == OpPop {
			return regBit(in.Dst) | regBit(RSP)
		}
		return regBit(in.Dst)
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpAddImm, OpSubImm, OpAndImm, OpOrImm, OpXorImm, OpShlImm, OpShrImm:
		return regBit(in.Dst) | regBit(RFLAGS)
	case OpCmp, OpCmpImm, OpTest, OpTestImm:
		return regBit(RFLAGS)
	case OpLoop:
		return regBit(RCX)
	case OpCall, OpRet:
		return regBit(RSP)
	case OpPush:
		return regBit(RSP)
	case OpRepMovs:
		return regBit(RCX) | regBit(RSI) | regBit(RDI)
	case OpCpuid:
		return regBit(RAX) | regBit(RBX) | regBit(RCX) | regBit(RDX)
	case OpRdtsc:
		return regBit(RAX) | regBit(RDX)
	}
	return 0
}

// ReadsReg reports whether the instruction reads r.
func (in Instr) ReadsReg(r Reg) bool { return in.Reads().Has(r) }

// WritesReg reports whether the instruction writes r.
func (in Instr) WritesReg(r Reg) bool { return in.Writes().Has(r) }
