package isa

import "testing"

func TestReadWriteSets(t *testing.T) {
	cases := []struct {
		in     Instr
		reads  RegSet
		writes RegSet
	}{
		{Instr{Op: OpMovImm, Dst: RAX}, 0, setOf(RAX)},
		{Instr{Op: OpMov, Dst: RAX, Src: RBX}, setOf(RBX), setOf(RAX)},
		{Instr{Op: OpAdd, Dst: RAX, Src: RBX}, setOf(RAX, RBX), setOf(RAX, RFLAGS)},
		{Instr{Op: OpCmp, Dst: RAX, Src: RBX}, setOf(RAX, RBX), setOf(RFLAGS)},
		{Instr{Op: OpJe}, setOf(RFLAGS), 0},
		{Instr{Op: OpJmpReg, Dst: R9}, setOf(R9), 0},
		{Instr{Op: OpLoop}, setOf(RCX), setOf(RCX)},
		{Instr{Op: OpPush, Src: RBP}, setOf(RBP, RSP), setOf(RSP)},
		{Instr{Op: OpPop, Dst: RBP}, setOf(RSP), setOf(RBP, RSP)},
		{Instr{Op: OpCall}, setOf(RSP), setOf(RSP)},
		{Instr{Op: OpRet}, setOf(RSP), setOf(RSP)},
		{Instr{Op: OpLoad, Dst: RAX, Base: RSI}, setOf(RSI), setOf(RAX)},
		{Instr{Op: OpStore, Src: RAX, Base: RDI}, setOf(RAX, RDI), 0},
		{Instr{Op: OpRepMovs}, setOf(RCX, RSI, RDI), setOf(RCX, RSI, RDI)},
		{Instr{Op: OpCpuid}, setOf(RAX), setOf(RAX, RBX, RCX, RDX)},
		{Instr{Op: OpRdtsc}, 0, setOf(RAX, RDX)},
		{Instr{Op: OpAssertLe, Dst: RCX}, setOf(RCX), 0},
		{Instr{Op: OpVMEntry}, 0, 0},
		{Instr{Op: OpNop}, 0, 0},
	}
	for _, c := range cases {
		if got := c.in.Reads(); got != c.reads {
			t.Errorf("%v Reads() = %v, want %v", c.in, members(got), members(c.reads))
		}
		if got := c.in.Writes(); got != c.writes {
			t.Errorf("%v Writes() = %v, want %v", c.in, members(got), members(c.writes))
		}
	}
}

// setOf builds the set of the given registers.
func setOf(regs ...Reg) RegSet {
	var s RegSet
	for _, r := range regs {
		s |= regBit(r)
	}
	return s
}

// members lists a set's registers in ascending order.
func members(s RegSet) []Reg {
	var out []Reg
	for r := Reg(0); r < NumReg; r++ {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// An unused operand (NoReg) is in no set, and no set holds NoReg.
func TestNoRegContributesNoMember(t *testing.T) {
	for _, in := range []Instr{
		{Op: OpMov, Dst: NoReg, Src: NoReg},
		{Op: OpAdd, Dst: NoReg, Src: NoReg},
		{Op: OpStore, Src: NoReg, Base: NoReg},
		{Op: OpPop, Dst: NoReg},
	} {
		if in.Reads()&^setOf(RSP) != 0 || in.Writes()&^setOf(RSP, RFLAGS) != 0 {
			t.Errorf("%v: NoReg operands gave members reads=%v writes=%v",
				in, members(in.Reads()), members(in.Writes()))
		}
		if in.ReadsReg(NoReg) || in.WritesReg(NoReg) {
			t.Errorf("%v: NoReg reported as a member", in)
		}
	}
}

// Reading the sets allocates nothing: the fault hook and the dead-value
// proofs test membership on every traced instruction.
func TestRegSetsDoNotAllocate(t *testing.T) {
	in := Instr{Op: OpRepMovs}
	if n := testing.AllocsPerRun(100, func() {
		_ = in.ReadsReg(RSI) && in.WritesReg(RDI)
	}); n != 0 {
		t.Errorf("ReadsReg/WritesReg allocate %.0f times per call pair", n)
	}
}

func TestReadsRegWritesReg(t *testing.T) {
	in := Instr{Op: OpAdd, Dst: RAX, Src: RBX}
	if !in.ReadsReg(RAX) || !in.ReadsReg(RBX) || in.ReadsReg(RCX) {
		t.Error("ReadsReg wrong")
	}
	if !in.WritesReg(RAX) || !in.WritesReg(RFLAGS) || in.WritesReg(RBX) {
		t.Error("WritesReg wrong")
	}
}

// Every conditional branch must read RFLAGS so flag corruption is visible
// to activation analysis.
func TestConditionalBranchesReadFlags(t *testing.T) {
	for _, op := range []Op{OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJae, OpJs, OpJns} {
		in := Instr{Op: op}
		if !in.ReadsReg(RFLAGS) {
			t.Errorf("%v does not read rflags", op)
		}
	}
}

// Every ALU op must write RFLAGS (x86-style) so downstream branches see it.
func TestALUWritesFlags(t *testing.T) {
	for _, op := range []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpMul, OpDiv, OpAddImm, OpSubImm, OpCmp, OpCmpImm, OpTest, OpTestImm} {
		in := Instr{Op: op, Dst: RAX, Src: RBX}
		if !in.WritesReg(RFLAGS) {
			t.Errorf("%v does not write rflags", op)
		}
	}
}
