package cpu

import (
	"testing"

	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/perf"
)

// buildCPU links the given programs at 0x4000, maps a stack and a data
// region, and returns a CPU with RIP at the first program's entry and RSP
// at the top of the stack.
func buildCPU(t *testing.T, progs ...*isa.Program) (*CPU, map[string]uint64) {
	t.Helper()
	ld := NewLoader(0x4000)
	for _, p := range progs {
		ld.Add(p)
	}
	seg, symtab, _, err := ld.Link()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.MustMap("stack", 0x10000, 0x1000, mem.PermRW)
	m.MustMap("data", 0x20000, 0x1000, mem.PermRW)
	c := New(m, seg, perf.New())
	c.Regs[isa.RIP] = symtab[progs[0].Name]
	c.Regs[isa.RSP] = 0x11000
	return c, symtab
}

func TestArithmeticAndMov(t *testing.T) {
	p := isa.NewBuilder("f").
		MovImm(isa.RAX, 10).
		MovImm(isa.RBX, 3).
		Add(isa.RAX, isa.RBX). // 13
		SubImm(isa.RAX, 1).    // 12
		Mov(isa.RCX, isa.RAX).
		Mul(isa.RCX, isa.RBX). // 36
		Div(isa.RCX, isa.RBX). // 12
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	res := c.Run(100)
	if res.Reason != StopVMEntry {
		t.Fatalf("stop = %v (%v)", res.Reason, res.Exc)
	}
	if c.Regs[isa.RAX] != 12 || c.Regs[isa.RCX] != 12 {
		t.Errorf("rax=%d rcx=%d, want 12, 12", c.Regs[isa.RAX], c.Regs[isa.RCX])
	}
	if res.Steps != 8 {
		t.Errorf("steps = %d, want 8", res.Steps)
	}
}

func TestConditionalBranches(t *testing.T) {
	// Compute max(rax, rbx) into rcx using jg.
	p := isa.NewBuilder("max").
		Cmp(isa.RAX, isa.RBX).
		Jg("a_bigger").
		Mov(isa.RCX, isa.RBX).
		VMEntry().
		Label("a_bigger").
		Mov(isa.RCX, isa.RAX).
		VMEntry().
		MustBuild()
	for _, tc := range []struct{ a, b, want uint64 }{
		{5, 9, 9}, {9, 5, 9}, {7, 7, 7},
	} {
		c, sym := buildCPU(t, p)
		c.Regs[isa.RIP] = sym["max"]
		c.Regs[isa.RAX], c.Regs[isa.RBX] = tc.a, tc.b
		if res := c.Run(100); res.Reason != StopVMEntry {
			t.Fatalf("stop = %v", res.Reason)
		}
		if c.Regs[isa.RCX] != tc.want {
			t.Errorf("max(%d,%d) = %d, want %d", tc.a, tc.b, c.Regs[isa.RCX], tc.want)
		}
	}
}

func TestSignedVsUnsignedBranches(t *testing.T) {
	// -1 (as uint64) is signed-less-than 1 but unsigned-above 1.
	p := isa.NewBuilder("cmp").
		Cmp(isa.RAX, isa.RBX).
		Jl("signed_less").
		MovImm(isa.RCX, 0).
		VMEntry().
		Label("signed_less").
		MovImm(isa.RCX, 1).
		Cmp(isa.RAX, isa.RBX).
		Jb("unsigned_below").
		VMEntry().
		Label("unsigned_below").
		MovImm(isa.RCX, 2).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.Regs[isa.RAX] = ^uint64(0) // -1
	c.Regs[isa.RBX] = 1
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	if c.Regs[isa.RCX] != 1 {
		t.Errorf("rcx = %d, want 1 (signed-less but not unsigned-below)", c.Regs[isa.RCX])
	}
}

func TestLoopCountsDown(t *testing.T) {
	p := isa.NewBuilder("loop").
		MovImm(isa.RCX, 5).
		MovImm(isa.RAX, 0).
		Label("top").
		AddImm(isa.RAX, 2).
		Loop("top").
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	if c.Regs[isa.RAX] != 10 {
		t.Errorf("rax = %d, want 10", c.Regs[isa.RAX])
	}
	if c.Regs[isa.RCX] != 0 {
		t.Errorf("rcx = %d, want 0", c.Regs[isa.RCX])
	}
}

func TestCallRetAcrossPrograms(t *testing.T) {
	callee := isa.NewBuilder("double").
		Add(isa.RAX, isa.RAX).
		Ret().
		MustBuild()
	caller := isa.NewBuilder("main").
		MovImm(isa.RAX, 21).
		CallSym("double").
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, caller, callee)
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	if c.Regs[isa.RAX] != 42 {
		t.Errorf("rax = %d, want 42", c.Regs[isa.RAX])
	}
	if c.Regs[isa.RSP] != 0x11000 {
		t.Errorf("rsp = %#x, want balanced 0x11000", c.Regs[isa.RSP])
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	p := isa.NewBuilder("stack").
		MovImm(isa.RAX, 7).
		MovImm(isa.RBX, 8).
		Push(isa.RAX).
		Push(isa.RBX).
		Pop(isa.RCX). // 8
		Pop(isa.RDX). // 7
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	if c.Regs[isa.RCX] != 8 || c.Regs[isa.RDX] != 7 {
		t.Errorf("rcx=%d rdx=%d, want 8, 7", c.Regs[isa.RCX], c.Regs[isa.RDX])
	}
}

func TestLoadStore(t *testing.T) {
	p := isa.NewBuilder("mem").
		MovImm(isa.RSI, 0x20000).
		MovImm(isa.RAX, 0x1234).
		Store(isa.RAX, isa.RSI, 8).
		Load(isa.RBX, isa.RSI, 8).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	if c.Regs[isa.RBX] != 0x1234 {
		t.Errorf("rbx = %#x", c.Regs[isa.RBX])
	}
}

func TestRepMovsCopiesAndRetiresPerWord(t *testing.T) {
	p := isa.NewBuilder("copy").
		MovImm(isa.RSI, 0x20000).
		MovImm(isa.RDI, 0x20100).
		MovImm(isa.RCX, 4).
		RepMovs().
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	for i := uint64(0); i < 4; i++ {
		if err := c.Mem.Poke(0x20000+i*8, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	c.PMU.Arm()
	res := c.Run(100)
	if res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	for i := uint64(0); i < 4; i++ {
		v, err := c.Mem.Peek(0x20100 + i*8)
		if err != nil || v != 100+i {
			t.Errorf("dst[%d] = %d, %v", i, v, err)
		}
	}
	// 3 movi + 4 rep iterations + 1 vmentry = 8 retired.
	if res.Steps != 8 {
		t.Errorf("steps = %d, want 8", res.Steps)
	}
	s := c.PMU.Read()
	if s.RM() != 4 || s.WM() != 4 {
		t.Errorf("RM=%d WM=%d, want 4, 4", s.RM(), s.WM())
	}
}

func TestRepMovsZeroCount(t *testing.T) {
	p := isa.NewBuilder("copy0").
		MovImm(isa.RSI, 0x20000).
		MovImm(isa.RDI, 0x20100).
		MovImm(isa.RCX, 0).
		RepMovs().
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	res := c.Run(100)
	if res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	if res.Steps != 5 {
		t.Errorf("steps = %d, want 5", res.Steps)
	}
}

func TestCorruptedRepMovsCountHitsBudget(t *testing.T) {
	// A bit flip in RCX (paper Fig. 5a) lengthens the copy; a huge count
	// runs into the budget watchdog with RIP parked on the repmovs.
	p := isa.NewBuilder("copy").
		MovImm(isa.RSI, 0x20000).
		MovImm(isa.RDI, 0x20100).
		MovImm(isa.RCX, 2).
		RepMovs().
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.PreStep = func(step, pc uint64) {
		if step == 3 { // right before repmovs
			c.Regs[isa.RCX] |= 1 << 40
		}
	}
	res := c.Run(50)
	if res.Reason != StopException && res.Reason != StopBudget {
		t.Fatalf("stop = %v, want exception (ran off region) or budget", res.Reason)
	}
}

func TestDivideByZeroRaisesDE(t *testing.T) {
	p := isa.NewBuilder("div0").
		MovImm(isa.RAX, 10).
		MovImm(isa.RBX, 0).
		Div(isa.RAX, isa.RBX).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	res := c.Run(100)
	if res.Reason != StopException || res.Exc.Vector != VecDE {
		t.Fatalf("got %v / %v, want #DE", res.Reason, res.Exc)
	}
}

func TestUnmappedLoadRaisesPF(t *testing.T) {
	p := isa.NewBuilder("bad").
		MovImm(isa.RSI, 0xdead0000).
		Load(isa.RAX, isa.RSI, 0).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	res := c.Run(100)
	if res.Reason != StopException || res.Exc.Vector != VecPF {
		t.Fatalf("got %v / %v, want #PF", res.Reason, res.Exc)
	}
	if res.Exc.Addr != 0xdead0000 {
		t.Errorf("fault addr = %#x", res.Exc.Addr)
	}
}

func TestCorruptStackPointerRaisesSS(t *testing.T) {
	p := isa.NewBuilder("badstack").
		MovImm(isa.RAX, 1).
		Push(isa.RAX).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.Regs[isa.RSP] = 0x40 // unmapped
	res := c.Run(100)
	if res.Reason != StopException || res.Exc.Vector != VecSS {
		t.Fatalf("got %v / %v, want #SS", res.Reason, res.Exc)
	}
}

func TestFetchOutsideTextRaisesPF(t *testing.T) {
	p := isa.NewBuilder("jumpout").
		MovImm(isa.RAX, 0xf0000000).
		JmpReg(isa.RAX).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	res := c.Run(100)
	if res.Reason != StopException || res.Exc.Vector != VecPF {
		t.Fatalf("got %v / %v, want #PF on fetch", res.Reason, res.Exc)
	}
}

func TestMisalignedFetchRaisesUD(t *testing.T) {
	p := isa.NewBuilder("mis").
		MovImm(isa.RAX, 0x4002). // inside text, off boundary
		JmpReg(isa.RAX).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	res := c.Run(100)
	if res.Reason != StopException || res.Exc.Vector != VecUD {
		t.Fatalf("got %v / %v, want #UD", res.Reason, res.Exc)
	}
}

func TestHalt(t *testing.T) {
	p := isa.NewBuilder("panic").Hlt().MustBuild()
	c, _ := buildCPU(t, p)
	if res := c.Run(100); res.Reason != StopHalt {
		t.Fatalf("stop = %v", res.Reason)
	}
}

func TestBudgetWatchdog(t *testing.T) {
	p := isa.NewBuilder("spin").
		Label("top").
		Jmp("top").
		MustBuild()
	c, _ := buildCPU(t, p)
	res := c.Run(64)
	if res.Reason != StopBudget {
		t.Fatalf("stop = %v, want budget", res.Reason)
	}
	if res.Steps != 64 {
		t.Errorf("steps = %d, want 64", res.Steps)
	}
}

func TestAssertDisabledIsFree(t *testing.T) {
	p := isa.NewBuilder("a").
		MovImm(isa.RAX, 300).
		AssertLe(isa.RAX, 255). // would fail if enabled
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.AssertsEnabled = false
	res := c.Run(100)
	if res.Reason != StopVMEntry {
		t.Fatalf("stop = %v, disabled assert must not fire", res.Reason)
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2 (assert compiled out)", res.Steps)
	}
}

func TestAssertEnabledFires(t *testing.T) {
	p := isa.NewBuilder("a").
		MovImm(isa.RAX, 300).
		AssertLe(isa.RAX, 255).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.AssertsEnabled = true
	res := c.Run(100)
	if res.Reason != StopAssert {
		t.Fatalf("stop = %v, want assert", res.Reason)
	}
	if res.AssertPC != 0x4000+isa.InstrBytes {
		t.Errorf("assert pc = %#x", res.AssertPC)
	}
}

func TestAssertEnabledPassesWhenTrue(t *testing.T) {
	p := isa.NewBuilder("a").
		MovImm(isa.RAX, 7).
		AssertLe(isa.RAX, 255).
		AssertGe(isa.RAX, 1).
		AssertEq(isa.RAX, 7).
		AssertNe(isa.RAX, 9).
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.AssertsEnabled = true
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
}

func TestCpuidUsesTable(t *testing.T) {
	p := isa.NewBuilder("id").
		MovImm(isa.RAX, 1).
		Cpuid().
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.CpuidTable[1] = [4]uint64{0xa, 0xb, 0xc, 0xd}
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	if c.Regs[isa.RAX] != 0xa || c.Regs[isa.RBX] != 0xb ||
		c.Regs[isa.RCX] != 0xc || c.Regs[isa.RDX] != 0xd {
		t.Errorf("cpuid regs = %x %x %x %x",
			c.Regs[isa.RAX], c.Regs[isa.RBX], c.Regs[isa.RCX], c.Regs[isa.RDX])
	}
}

func TestRdtscAdvances(t *testing.T) {
	p := isa.NewBuilder("tsc").
		Rdtsc().
		Mov(isa.R8, isa.RAX).
		Rdtsc().
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.TSC = 1000
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	first, second := c.Regs[isa.R8], c.Regs[isa.RAX]
	if second <= first {
		t.Errorf("tsc did not advance: %d then %d", first, second)
	}
}

func TestPerfCountersSeeRun(t *testing.T) {
	p := isa.NewBuilder("counted").
		MovImm(isa.RSI, 0x20000).
		Load(isa.RAX, isa.RSI, 0).
		Store(isa.RAX, isa.RSI, 8).
		CmpImm(isa.RAX, 0).
		Je("done").
		Label("done").
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.PMU.Arm()
	if res := c.Run(100); res.Reason != StopVMEntry {
		t.Fatalf("stop = %v", res.Reason)
	}
	s := c.PMU.Read()
	if s.RT() != 6 {
		t.Errorf("RT = %d, want 6", s.RT())
	}
	if s.BR() != 1 {
		t.Errorf("BR = %d, want 1", s.BR())
	}
	if s.RM() != 1 || s.WM() != 1 {
		t.Errorf("RM=%d WM=%d, want 1, 1", s.RM(), s.WM())
	}
}

func TestFlagBitFlipChangesBranchOutcome(t *testing.T) {
	// Paper Fig. 5b: an error in a value feeding a test flips the branch
	// to a valid but incorrect target. Here we flip ZF directly.
	p := isa.NewBuilder("evtchn").
		MovImm(isa.RAX, 0).
		TestImm(isa.RAX, 0xffffffff). // ZF=1
		Je("skip_pending").
		MovImm(isa.RBX, 1). // vcpu_mark_events_pending
		Label("skip_pending").
		VMEntry().
		MustBuild()

	run := func(flip bool) uint64 {
		c, _ := buildCPU(t, p)
		if flip {
			c.PreStep = func(step, pc uint64) {
				if step == 2 { // before the je
					c.Regs[isa.RFLAGS] ^= isa.FlagZF
				}
			}
		}
		if res := c.Run(100); res.Reason != StopVMEntry {
			t.Fatalf("stop = %v", res.Reason)
		}
		return c.Regs[isa.RBX]
	}
	if got := run(false); got != 0 {
		t.Errorf("fault-free rbx = %d, want 0", got)
	}
	if got := run(true); got != 1 {
		t.Errorf("flipped rbx = %d, want 1 (incorrect path executed)", got)
	}
}

func TestPreStepInjectionInRIP(t *testing.T) {
	p := isa.NewBuilder("f").
		Nop().Nop().Nop().Nop().
		VMEntry().
		MustBuild()
	c, _ := buildCPU(t, p)
	c.PreStep = func(step, pc uint64) {
		if step == 1 {
			c.Regs[isa.RIP] ^= 1 << 30 // way outside text
		}
	}
	res := c.Run(100)
	if res.Reason != StopException || res.Exc.Vector != VecPF {
		t.Fatalf("got %v / %v, want #PF", res.Reason, res.Exc)
	}
}

func TestLoaderRejectsDuplicatePrograms(t *testing.T) {
	p1 := isa.NewBuilder("same").VMEntry().MustBuild()
	p2 := isa.NewBuilder("same").VMEntry().MustBuild()
	_, _, _, err := NewLoader(0x4000).Add(p1).Add(p2).Link()
	if err == nil {
		t.Fatal("expected duplicate-program error")
	}
}

func TestSegmentBoundaries(t *testing.T) {
	p := isa.NewBuilder("one").Nop().VMEntry().MustBuild()
	seg, _, _, err := NewLoader(0x4000).Add(p).Link()
	if err != nil {
		t.Fatal(err)
	}
	if _, fr := seg.FetchInstr(0x4000 - isa.InstrBytes); fr != FetchUnmapped {
		t.Error("below base should be unmapped")
	}
	if _, fr := seg.FetchInstr(seg.End()); fr != FetchUnmapped {
		t.Error("at End() should be unmapped")
	}
	if _, fr := seg.FetchInstr(0x4001); fr != FetchMisaligned {
		t.Error("off boundary should be misaligned")
	}
	if in, ok := seg.InstrAt(0x4000); !ok || in.Op != isa.OpNop {
		t.Errorf("InstrAt(base) = %v, %v", in, ok)
	}
}

func TestVectorStrings(t *testing.T) {
	for v, want := range map[Vector]string{
		VecDE: "#DE", VecUD: "#UD", VecSS: "#SS", VecGP: "#GP", VecPF: "#PF",
	} {
		if v.String() != want {
			t.Errorf("Vector(%d) = %q, want %q", v, v.String(), want)
		}
	}
}

func TestStopReasonStrings(t *testing.T) {
	for _, r := range []StopReason{StopVMEntry, StopHalt, StopException, StopAssert, StopBudget} {
		if r.String() == "" {
			t.Errorf("StopReason %d has empty name", r)
		}
	}
}
