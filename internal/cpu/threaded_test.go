package cpu

import (
	"reflect"
	"sync"
	"testing"

	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/perf"
)

// This file is the run-loop differential harness for the direct-threaded
// translator and the traced loop: every program must produce bit-identical
// architectural state — registers, RIP, RFLAGS, TSC, PMU counters, memory
// image, and the RunResult itself — no matter which of the three run
// loops executes it (threaded closures, the semantics-table loop, or the
// traced loop every injection runs, here under a hook that never disarms
// and drops the D-TLB at every step so each access takes the region
// search).

const (
	fuzzBase     = 0x4000  // text segment base
	fuzzData     = 0x20000 // RW data region
	fuzzDataSize = 0x1000
	fuzzRO       = 0x30000 // read-only region (store protection faults)
	fuzzROSize   = 0x100
)

// fuzzOps is the opcode alphabet for generated programs. The loop-body
// quartet (addi/store/load/add) and the cmp/branch pairs appear multiple
// times so random programs frequently form the fused superinstruction
// patterns, including their budget seams and fault paths.
var fuzzOps = []isa.Op{
	isa.OpAddImm, isa.OpStore, isa.OpLoad, isa.OpAdd, isa.OpJmp,
	isa.OpAddImm, isa.OpStore, isa.OpLoad, isa.OpAdd, isa.OpJmp,
	isa.OpCmp, isa.OpJe, isa.OpCmpImm, isa.OpJne, isa.OpTest, isa.OpJl,
	isa.OpCmp, isa.OpJg, isa.OpTestImm, isa.OpJb, isa.OpJae, isa.OpJs,
	isa.OpJns, isa.OpJle, isa.OpJge,
	isa.OpNop, isa.OpHlt, isa.OpMovImm, isa.OpMov,
	isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
	isa.OpMul, isa.OpDiv,
	isa.OpSubImm, isa.OpAndImm, isa.OpOrImm, isa.OpXorImm,
	isa.OpShlImm, isa.OpShrImm,
	isa.OpJmpReg, isa.OpLoop, isa.OpCall, isa.OpRet,
	isa.OpPush, isa.OpPop, isa.OpRepMovs,
	isa.OpCpuid, isa.OpRdtsc, isa.OpOut,
	isa.OpAssertEq, isa.OpAssertNe, isa.OpAssertLe, isa.OpAssertGe,
	isa.OpAssertRange, isa.OpVMEntry,
}

// fuzzReg maps a byte to a register index, covering the full file
// including RIP and RFLAGS so the touchesRIP/touchesFlags fusion guards
// are exercised (an aliased encoding must fall back to the generic or
// pair path, not change semantics).
func fuzzReg(b byte) isa.Reg { return isa.Reg(b % byte(isa.NumReg)) }

// fuzzDecode turns raw fuzz bytes into a program: four bytes per
// instruction (op selector, three operand bytes). Branch targets land
// inside the segment or one slot past its end, so control flow mostly
// stays in text but can also fault on fetch.
func fuzzDecode(data []byte) []isa.Instr {
	n := len(data) / 4
	if n > 256 {
		n = 256
	}
	instrs := make([]isa.Instr, 0, n)
	for i := 0; i < n; i++ {
		b0, b1, b2, b3 := data[i*4], data[i*4+1], data[i*4+2], data[i*4+3]
		in := isa.Instr{
			Op:   fuzzOps[int(b0)%len(fuzzOps)],
			Dst:  fuzzReg(b1),
			Src:  fuzzReg(b2),
			Base: fuzzReg(b3),
		}
		switch in.Op {
		case isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle,
			isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae, isa.OpJs,
			isa.OpJns, isa.OpLoop, isa.OpCall:
			in.Imm = int64(fuzzBase + uint64(b3)%uint64(n+2)*isa.InstrBytes)
		case isa.OpLoad, isa.OpStore, isa.OpPush, isa.OpPop:
			in.Imm = int64(int8(b3)) // displacement: small, signed, maybe unaligned
		case isa.OpOut:
			in.Imm = int64(b3)
		default:
			in.Imm = int64(int8(b3)) << (b2 % 33)
		}
		instrs = append(instrs, in)
	}
	return instrs
}

// archState is everything a dispatcher can influence.
type archState struct {
	res  RunResult
	regs [isa.NumReg]uint64
	tsc  uint64
	pmu  perf.Sample
	mem  map[string][]uint64
}

// execVariant runs instrs from identical initial state under one
// dispatcher configuration and returns the final architectural state.
// traced arms a PreStep hook that never disarms and invalidates the D-TLB
// before every instruction. arm, when non-nil, is called on the ready CPU
// just before Run.
func execVariant(instrs []isa.Instr, seed byte, budget uint64, asserts, switchDispatch, traced bool, arm func(*CPU)) archState {
	seg := &Segment{Base: fuzzBase, instrs: instrs}
	m := mem.New()
	m.MustMap("data", fuzzData, fuzzDataSize, mem.PermRW)
	m.MustMap("ro", fuzzRO, fuzzROSize, mem.PermRead)
	c := New(m, seg, perf.New())
	c.AssertsEnabled = asserts
	c.DisableThreaded = switchDispatch
	if traced {
		c.PreStep = func(step, pc uint64) { c.Mem.InvalidateTLB() }
	}
	c.CpuidTable[0] = [4]uint64{0x1234, 0x5678, 0x9abc, 0xdef0}

	// Deterministic register mix: in-region aligned pointers, maybe-
	// unaligned pointers, text addresses (indirect-branch fodder), and
	// wild values that fault on dereference.
	s := uint64(seed)
	for i := 0; i < isa.NumGPR; i++ {
		switch i % 4 {
		case 0:
			c.Regs[i] = fuzzData + (s*64+uint64(i)*24)%(fuzzDataSize-8)&^7
		case 1:
			c.Regs[i] = fuzzData + (s*40+uint64(i)*13)%fuzzDataSize
		case 2:
			c.Regs[i] = s*0x9E3779B97F4A7C15 + uint64(i)
		case 3:
			c.Regs[i] = fuzzBase + (s+uint64(i))%uint64(len(instrs)+2)*isa.InstrBytes
		}
	}
	c.Regs[isa.RSP] = fuzzData + fuzzDataSize/2
	c.Regs[isa.RCX] = s % 7 // bounded rep-mov / loop trip counts
	c.Regs[isa.RFLAGS] = s & (isa.FlagCF | isa.FlagZF | isa.FlagSF | isa.FlagOF)
	c.Regs[isa.RIP] = fuzzBase

	c.PMU.Arm()
	if arm != nil {
		arm(c)
	}
	res := c.Run(budget)
	return archState{
		res:  res,
		regs: c.Regs,
		tsc:  c.TSC,
		pmu:  c.PMU.Read(),
		mem:  m.Snapshot(),
	}
}

// diffStates fails the test if two dispatcher runs diverged anywhere.
func diffStates(t *testing.T, label string, got, want archState) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: RunResult %+v != %+v", label, got.res, want.res)
	}
	if got.regs != want.regs {
		t.Errorf("%s: register files diverge\ngot  %v\nwant %v", label, got.regs, want.regs)
	}
	if got.tsc != want.tsc {
		t.Errorf("%s: tsc %d != %d", label, got.tsc, want.tsc)
	}
	if got.pmu != want.pmu {
		t.Errorf("%s: PMU %v != %v", label, got.pmu, want.pmu)
	}
	if !reflect.DeepEqual(got.mem, want.mem) {
		t.Errorf("%s: memory images diverge", label)
	}
}

// checkAllDispatchers runs one program under all three run loops and a
// spread of budgets (including every seam of the fused bodies) and
// demands bit-identical outcomes.
func checkAllDispatchers(t *testing.T, instrs []isa.Instr, seed byte, budgets []uint64, asserts bool) {
	t.Helper()
	for _, budget := range budgets {
		ref := execVariant(instrs, seed, budget, asserts, true, false, nil)
		thr := execVariant(instrs, seed, budget, asserts, false, false, nil)
		trc := execVariant(instrs, seed, budget, asserts, false, true, nil)
		diffStates(t, labelFor("threaded", budget), thr, ref)
		diffStates(t, labelFor("traced", budget), trc, ref)
	}
}

// hookCall is one PreStep invocation.
type hookCall struct{ step, pc uint64 }

// tracedFrom runs instrs under one dispatcher with a PreStep hook that
// watches local steps from `from` on: deferred by PreStepFrom, or armed
// from step 0 and ignoring the steps before from. Like the fault injector,
// the hook clears PreStepFrom and flips a register bit at its first
// observed call, and it disarms itself after a few calls, so both the cut
// and the hand-off back to the untraced loop show in the final state.
func tracedFrom(instrs []isa.Instr, seed byte, budget, from uint64, asserts, switchDispatch, deferred bool) ([]hookCall, archState) {
	var calls []hookCall
	limit := 2 + int(seed%5)
	st := execVariant(instrs, seed, budget, asserts, switchDispatch, false, func(c *CPU) {
		c.PreStep = func(step, pc uint64) {
			if !deferred && step < from {
				return
			}
			calls = append(calls, hookCall{step, pc})
			if len(calls) == 1 {
				c.PreStepFrom = 0
				c.Regs[isa.Reg(seed%isa.NumGPR)] ^= 1 << (seed % 64)
			}
			if len(calls) == limit {
				c.PreStep = nil
			}
		}
		if deferred {
			c.PreStepFrom = from
		}
	})
	return calls, st
}

// checkTracedFrom holds a hook deferred to step `from` to one armed from
// step 0 that ignores the earlier steps, on both untraced dispatchers: the
// same (step, pc) calls and the same final state.
func checkTracedFrom(t *testing.T, instrs []isa.Instr, seed byte, budget, from uint64, asserts bool) {
	t.Helper()
	for _, sw := range []bool{false, true} {
		label := "threaded"
		if sw {
			label = "switch"
		}
		label += " traced from " + uitoa(from) + " @budget=" + uitoa(budget)
		wantCalls, want := tracedFrom(instrs, seed, budget, from, asserts, sw, false)
		gotCalls, got := tracedFrom(instrs, seed, budget, from, asserts, sw, true)
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Errorf("%s: hook calls %v, want %v", label, gotCalls, wantCalls)
		}
		diffStates(t, label, got, want)
	}
}

func labelFor(name string, budget uint64) string {
	return name + " vs switch @budget=" + uitoa(budget)
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// FuzzThreadedVsSwitch generates random programs and differentially
// executes them under the threaded translator, the switch-dispatch fast
// interpreter, and the traced loop with the D-TLB dropped at every step.
// Any divergence in result, registers, timing, PMU counts, or memory is a
// bug in the translator, the traced loop or the D-TLB.
func FuzzThreadedVsSwitch(f *testing.F) {
	// enc builds one instruction's fuzz encoding for seed corpora.
	enc := func(op isa.Op, b1, b2, b3 byte) []byte {
		for i, o := range fuzzOps {
			if o == op {
				return []byte{byte(i), b1, b2, b3}
			}
		}
		f.Fatalf("op %v not in fuzzOps", op)
		return nil
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// The fused loop body (addi/store/load/add/jmp) at several budgets:
	// exercises fuseLoopBody, its seams, and the jump fold.
	loop := cat(
		enc(isa.OpAddImm, 0, 0, 3),
		enc(isa.OpStore, 0, 4, 0),
		enc(isa.OpLoad, 1, 0, 4),
		enc(isa.OpAdd, 0, 1, 0),
		enc(isa.OpJmp, 0, 0, 0),
	)
	f.Add(loop, byte(1), uint16(4096), false, uint16(0))
	f.Add(loop, byte(7), uint16(3), false, uint16(2))
	// cmp+Jcc pair, then a loop-body that aliases RFLAGS as a base
	// register (index 17) — must reject fusion, not change semantics.
	f.Add(cat(
		enc(isa.OpCmpImm, 0, 3, 5),
		enc(isa.OpJne, 0, 0, 0),
		enc(isa.OpAddImm, 17, 0, 1),
		enc(isa.OpStore, 0, 4, 17),
		enc(isa.OpLoad, 1, 17, 4),
		enc(isa.OpAdd, 0, 1, 0),
	), byte(3), uint16(64), true, uint16(5))
	// ALU-imm + store + jmp (fuseALUImmStore with fold), call/ret, asserts.
	f.Add(cat(
		enc(isa.OpAndImm, 2, 3, 8),
		enc(isa.OpStore, 0, 2, 0),
		enc(isa.OpJmp, 0, 0, 4),
		enc(isa.OpCall, 0, 0, 5),
		enc(isa.OpAssertLe, 2, 0, 100),
		enc(isa.OpRet, 0, 0, 0),
	), byte(9), uint16(33), true, uint16(17))
	// RIP-aliased operands route through compileGeneric.
	f.Add(cat(
		enc(isa.OpMov, 4, 16, 0),
		enc(isa.OpAddImm, 16, 0, 4),
		enc(isa.OpVMEntry, 0, 0, 0),
	), byte(2), uint16(10), false, uint16(1))
	// A 40-word rep movs retiring local steps 5-44, with the traced run
	// deferred to step 20: the cut lands mid-copy, so the first hook call
	// must wait for the rep's end.
	f.Add(cat(
		enc(isa.OpNop, 0, 0, 0),
		enc(isa.OpNop, 0, 0, 0),
		enc(isa.OpMovImm, byte(isa.RCX), 0, 40),
		enc(isa.OpMovImm, byte(isa.RSI), 16, 2),    // 2<<16 = fuzzData
		enc(isa.OpMovImm, byte(isa.RDI), 11, 0x41), // 0x41<<11 = fuzzData+0x800
		enc(isa.OpRepMovs, 0, 0, 0),
		enc(isa.OpAddImm, byte(isa.RAX), 0, 1),
		enc(isa.OpVMEntry, 0, 0, 0),
	), byte(0), uint16(299), false, uint16(20))

	f.Fuzz(func(t *testing.T, data []byte, seed byte, rawBudget uint16, asserts bool, rawFrom uint16) {
		instrs := fuzzDecode(data)
		if len(instrs) == 0 {
			t.Skip()
		}
		budget := uint64(rawBudget)%300 + 1
		checkAllDispatchers(t, instrs, seed, []uint64{budget}, asserts)
		checkTracedFrom(t, instrs, seed, budget, uint64(rawFrom)%(budget+8), asserts)
	})
}

// TestPreStepFromWaitsOutCutRep: a PreStepFrom cut inside a rep movs
// defers the first hook call to the instruction after the rep — the
// boundary the traced loop gives the hook — not to the cut step, and the
// run ends in the state a hook armed from step 0 leaves.
func TestPreStepFromWaitsOutCutRep(t *testing.T) {
	instrs := []isa.Instr{
		{Op: isa.OpMovImm, Dst: isa.RCX, Imm: 10},
		{Op: isa.OpMovImm, Dst: isa.RSI, Imm: fuzzData},
		{Op: isa.OpMovImm, Dst: isa.RDI, Imm: fuzzData + 0x800},
		{Op: isa.OpRepMovs}, // local steps 3-12
		{Op: isa.OpVMEntry}, // local step 13
	}
	want := hookCall{13, fuzzBase + 4*isa.InstrBytes}
	for _, sw := range []bool{false, true} {
		for _, from := range []uint64{4, 7, 12, 13} {
			calls, _ := tracedFrom(instrs, 0, 100, from, false, sw, true)
			if len(calls) == 0 || calls[0] != want {
				t.Errorf("switch=%v from=%d: first hook call %v, want %v", sw, from, calls, want)
			}
		}
	}
	for _, from := range []uint64{0, 3, 4, 12, 13, 14} {
		for _, budget := range []uint64{5, 12, 13, 14, 100} {
			checkTracedFrom(t, instrs, 0, budget, from, false)
		}
	}
}

// TestThreadedBudgetSeams pins the interpreter-exact (pc, retired) pairs
// at every partial-progress exit of the fused superinstructions: a
// budget boundary landing mid-pair or mid-loop-body must leave RIP,
// counters, and memory exactly where the one-instruction-at-a-time
// interpreter would.
func TestThreadedBudgetSeams(t *testing.T) {
	mk := func(ops ...isa.Instr) []isa.Instr { return ops }
	seams := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 100}
	cases := []struct {
		name   string
		instrs []isa.Instr
	}{
		{"loop-body", mk(
			isa.Instr{Op: isa.OpAddImm, Dst: isa.RAX, Imm: 3},
			isa.Instr{Op: isa.OpStore, Src: isa.RAX, Base: isa.RBX},
			isa.Instr{Op: isa.OpLoad, Dst: isa.RCX, Base: isa.RBX, Imm: 8},
			isa.Instr{Op: isa.OpAdd, Dst: isa.RAX, Src: isa.RCX},
			isa.Instr{Op: isa.OpJmp, Imm: fuzzBase},
		)},
		{"cmp-branch", mk(
			isa.Instr{Op: isa.OpCmpImm, Dst: isa.RAX, Imm: 1000},
			isa.Instr{Op: isa.OpJne, Imm: fuzzBase + 3*isa.InstrBytes},
			isa.Instr{Op: isa.OpHlt},
			isa.Instr{Op: isa.OpAddImm, Dst: isa.RAX, Imm: 1},
			isa.Instr{Op: isa.OpJmp, Imm: fuzzBase},
		)},
		{"aluimm-store-fold", mk(
			isa.Instr{Op: isa.OpXorImm, Dst: isa.RDX, Imm: 0x55},
			isa.Instr{Op: isa.OpStore, Src: isa.RDX, Base: isa.RBX, Imm: 16},
			isa.Instr{Op: isa.OpJmp, Imm: fuzzBase},
		)},
		{"load-alu-fold", mk(
			isa.Instr{Op: isa.OpLoad, Dst: isa.RSI, Base: isa.RBX, Imm: 24},
			isa.Instr{Op: isa.OpAdd, Dst: isa.RDI, Src: isa.RSI},
			isa.Instr{Op: isa.OpJmp, Imm: fuzzBase},
		)},
		{"store-fault-mid-body", mk(
			isa.Instr{Op: isa.OpAddImm, Dst: isa.RAX, Imm: 3},
			isa.Instr{Op: isa.OpStore, Src: isa.RAX, Base: isa.R8}, // wild base
			isa.Instr{Op: isa.OpLoad, Dst: isa.RCX, Base: isa.RBX, Imm: 8},
			isa.Instr{Op: isa.OpAdd, Dst: isa.RAX, Src: isa.RCX},
			isa.Instr{Op: isa.OpJmp, Imm: fuzzBase},
		)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []byte{0, 5, 13} {
				checkAllDispatchers(t, tc.instrs, seed, seams, false)
			}
		})
	}
}

// TestTranslationVersionEviction proves the linked-text cache key
// includes the translator version: a version bump must discard the
// cached threaded code and retranslate, so stale translations can never
// outlive a translator change.
func TestTranslationVersionEviction(t *testing.T) {
	seg, _, _, err := NewLoader(fuzzBase).Add(hotProgram()).Link()
	if err != nil {
		t.Fatal(err)
	}
	code1 := seg.threadedCode()
	if len(code1) == 0 {
		t.Fatal("no threaded code")
	}
	if code2 := seg.threadedCode(); &code2[0] != &code1[0] {
		t.Fatal("same version retranslated instead of reusing the cache")
	}
	old := translationVersion
	defer func() { translationVersion = old }()

	translationVersion = old + 1
	code3 := seg.threadedCode()
	if &code3[0] == &code1[0] {
		t.Fatal("version bump did not evict the cached translation")
	}
	if tr := seg.trans.Load(); tr == nil || tr.version != old+1 {
		t.Fatalf("cached translation carries version %v, want %d", tr, old+1)
	}
	if code4 := seg.threadedCode(); &code4[0] != &code3[0] {
		t.Fatal("stable version retranslated instead of reusing the cache")
	}

	translationVersion = old
	if code5 := seg.threadedCode(); &code5[0] == &code3[0] {
		t.Fatal("version restore did not evict the bumped translation")
	}
}

// TestConcurrentTranslationRace races many workers into an untranslated
// shared Segment so several translate() calls overlap (benign duplicate
// publication) while others execute freshly published code, at budgets
// that land on every fused-body seam. Run under -race in CI; results
// must also match a single-threaded switch-dispatch reference.
func TestConcurrentTranslationRace(t *testing.T) {
	prog := hotProgram()
	const workers = 16
	for round := 0; round < 4; round++ {
		seg, symtab, _, err := NewLoader(fuzzBase).Add(prog).Link()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				budget := uint64(g*97 + 1) // spread across fused-body seams
				m := mem.New()
				m.MustMap("data", fuzzData, fuzzDataSize, mem.PermRW)
				c := New(m, seg, perf.New())
				c.Regs[isa.RIP] = symtab["hot"]
				c.Run(budget)

				rm := mem.New()
				rm.MustMap("data", fuzzData, fuzzDataSize, mem.PermRW)
				ref := New(rm, seg, perf.New())
				ref.DisableThreaded = true
				ref.Regs[isa.RIP] = symtab["hot"]
				ref.Run(budget)
				if c.Regs != ref.Regs || c.TSC != ref.TSC {
					t.Errorf("worker %d (budget %d): threaded diverges from switch dispatch", g, budget)
				}
			}(g)
		}
		wg.Wait()
	}
}
