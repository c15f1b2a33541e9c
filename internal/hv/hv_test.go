package hv

import (
	"testing"

	"xentry/internal/cpu"
	"xentry/internal/isa"
)

func newHV(t *testing.T, domains int) *Hypervisor {
	t.Helper()
	h, err := New(domains)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewLinksAllHandlers(t *testing.T) {
	h := newHV(t, 3)
	for r := ExitReason(0); r < NumExitReasons; r++ {
		if h.EntryFor(r) == 0 {
			t.Errorf("reason %v has no entry", r)
		}
	}
	if h.Seg.Len() == 0 {
		t.Fatal("empty text segment")
	}
}

func TestAllHandlerProgramsComplete(t *testing.T) {
	progs, err := AllHandlerPrograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) < 60 {
		t.Errorf("only %d programs; expected the full handler inventory", len(progs))
	}
}

func TestExitReasonTaxonomy(t *testing.T) {
	if got := len(Hypercalls()); got != 38 {
		t.Errorf("hypercalls = %d, want 38 (Xen 4.1.2)", got)
	}
	if got := len(Exceptions()); got != 19 {
		t.Errorf("exceptions = %d, want 19", got)
	}
	apic := 0
	for r := ExitReason(0); r < NumExitReasons; r++ {
		if r.Category() == CatAPIC {
			apic++
		}
	}
	if apic != 10 {
		t.Errorf("APIC handlers = %d, want 10", apic)
	}
	for r := ExitReason(0); r < NumExitReasons; r++ {
		if r.String() == "" || r.Handler() == "" {
			t.Errorf("reason %d missing name/handler", r)
		}
	}
}

// Every exit reason must dispatch fault-free on canonical inputs, with
// assertions enabled, across a spread of argument seeds.
func TestFaultFreeDispatchAllReasons(t *testing.T) {
	h := newHV(t, 3)
	h.CPU.AssertsEnabled = true
	for r := ExitReason(0); r < NumExitReasons; r++ {
		for dom := 0; dom < 3; dom++ {
			for rnd := uint64(0); rnd < 8; rnd++ {
				args, err := PrepareGuestInput(h, dom, r, rnd*2654435761+uint64(dom))
				if err != nil {
					t.Fatalf("%v dom%d: prepare: %v", r, dom, err)
				}
				ev := &ExitEvent{Reason: r, Dom: dom, Args: args}
				res, err := h.Dispatch(ev, DefaultBudget)
				if err != nil {
					t.Fatalf("%v dom%d: %v", r, dom, err)
				}
				if res.Stop != cpu.StopVMEntry {
					t.Fatalf("%v dom%d rnd%d: stop=%v exc=%v assertpc=%#x",
						r, dom, rnd, res.Stop, res.Exc, res.AssertPC)
				}
				if res.FixedUp != 0 {
					t.Errorf("%v dom%d: unexpected fixup on fault-free run", r, dom)
				}
				if res.Steps == 0 || res.Steps > 2000 {
					t.Errorf("%v dom%d: implausible handler length %d", r, dom, res.Steps)
				}
			}
		}
	}
}

func TestEventChannelSendSetsPending(t *testing.T) {
	h := newHV(t, 2)
	ev := &ExitEvent{Reason: HCEventChannelOp, Dom: 1, Args: [4]uint64{4, 5}}
	res, err := h.Dispatch(ev, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v", res.Stop, err)
	}
	if got, _ := h.Mem.Peek(EvtchnAddr(1)); got&(1<<5) == 0 {
		t.Errorf("domain pending word = %#x, bit 5 unset", got)
	}
	if got := h.SharedWord(1, SIEvtPending); got&(1<<5) == 0 {
		t.Errorf("shared-info pending = %#x, bit 5 unset", got)
	}
	if got := h.VCPUWord(1, VCPUPendingEv); got != 1 {
		t.Errorf("vcpu upcall pending = %d, want 1", got)
	}
	if res.RetVal != 0 {
		t.Errorf("retval = %d", res.RetVal)
	}
}

func TestEventChannelBadPortRejected(t *testing.T) {
	h := newHV(t, 1)
	ev := &ExitEvent{Reason: HCEventChannelOp, Dom: 0, Args: [4]uint64{4, 99}}
	res, err := h.Dispatch(ev, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v", res.Stop, err)
	}
	if int64(res.RetVal) != errEINVAL {
		t.Errorf("retval = %d, want %d", int64(res.RetVal), int64(errEINVAL))
	}
}

func TestCpuidEmulationDeliversTable(t *testing.T) {
	h := newHV(t, 2)
	if err := h.SetSavedReg(1, 0, 1); err != nil { // leaf 1
		t.Fatal(err)
	}
	ev := &ExitEvent{Reason: ExGeneralProtection, Dom: 1, Args: [4]uint64{0, 1}}
	res, err := h.Dispatch(ev, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v", res.Stop, err)
	}
	want := h.CPU.CpuidTable[1]
	// Leaf 1 advertises SSE2 (edx bit 26), so the PV filter sets OSXSAVE
	// (ecx bit 27) on the delivered value.
	want[2] |= 1 << 27
	for i := 0; i < 4; i++ {
		if got := h.SavedReg(1, i); i > 0 && got != want[i] {
			t.Errorf("saved reg %d = %#x, want %#x", i, got, want[i])
		}
	}
	// Saved rax is overwritten by the return-value delivery (0 here), so
	// check eax result went through the handler path by checking ebx.
	if h.SavedReg(1, 1) != want[1] {
		t.Errorf("ebx not delivered")
	}
}

func TestApicTimerDeliversTime(t *testing.T) {
	h := newHV(t, 2)
	h.CPU.TSC = 1 << 20
	ev := &ExitEvent{Reason: APICTimer, Dom: 0}
	res, err := h.Dispatch(ev, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v", res.Stop, err)
	}
	timeVal := h.SharedWord(0, SISystemTime)
	if timeVal == 0 {
		t.Fatal("system time not written")
	}
	if got := h.VCPUWord(0, VCPULastTime); got != timeVal {
		t.Errorf("vcpu time %d != shared time %d", got, timeVal)
	}
	if v := h.SharedWord(0, SITimeVersion); v%2 != 0 || v == 0 {
		t.Errorf("time version = %d, want even nonzero", v)
	}
	// Timer event (port 0) raised.
	if got := h.SharedWord(0, SIEvtPending); got&1 == 0 {
		t.Errorf("timer event not pending: %#x", got)
	}
}

func TestTimeAdvancesAcrossTicks(t *testing.T) {
	h := newHV(t, 1)
	var last uint64
	for i := 0; i < 5; i++ {
		res, err := h.Dispatch(&ExitEvent{Reason: APICTimer, Dom: 0}, DefaultBudget)
		if err != nil || res.Stop != cpu.StopVMEntry {
			t.Fatalf("dispatch: %v %v", res.Stop, err)
		}
		now := h.SharedWord(0, SISystemTime)
		if now <= last {
			t.Fatalf("time did not advance: %d then %d", last, now)
		}
		last = now
	}
}

func TestSetTrapTableAssertHolds(t *testing.T) {
	h := newHV(t, 1)
	h.CPU.AssertsEnabled = true
	args, err := PrepareGuestInput(h, 0, HCSetTrapTable, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Dispatch(&ExitEvent{Reason: HCSetTrapTable, Dom: 0, Args: args}, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v (assert at %#x)", res.Stop, err, res.AssertPC)
	}
	if got := h.VCPUWord(0, VCPUTrapNr); got > MaxTraps {
		t.Errorf("delivered trap nr %d out of bounds", got)
	}
}

func TestSetTrapTableAssertCatchesCorruptVector(t *testing.T) {
	// Flip a high bit in the loaded vector right before the ASSERT — the
	// Listing 1 check must fire.
	h := newHV(t, 1)
	h.CPU.AssertsEnabled = true
	args, err := PrepareGuestInput(h, 0, HCSetTrapTable, 7)
	if err != nil {
		t.Fatal(err)
	}
	assertSeen := false
	h.CPU.PreStep = func(step, pc uint64) {
		in, ok := h.Seg.InstrAt(pc)
		if ok && in.Op == isa.OpAssertLe && !assertSeen {
			assertSeen = true
			h.CPU.Regs[isa.RBX] |= 1 << 20
		}
	}
	defer func() { h.CPU.PreStep = nil }()
	res, err := h.Dispatch(&ExitEvent{Reason: HCSetTrapTable, Dom: 0, Args: args}, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != cpu.StopAssert {
		t.Fatalf("stop = %v, want assert", res.Stop)
	}
}

func TestSchedOpBlockIdlePathAssertHolds(t *testing.T) {
	h := newHV(t, 1)
	h.CPU.AssertsEnabled = true
	// Block with no pending events → context switch to idle VCPU.
	res, err := h.Dispatch(&ExitEvent{Reason: HCSchedOp, Dom: 0, Args: [4]uint64{1}}, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v (assert at %#x)", res.Stop, err, res.AssertPC)
	}
	// Scheduler current must now be the idle VCPU and the CPU idled.
	if cur, _ := h.Mem.Peek(SchedAddr()); cur != IdleVCPUAddr() {
		t.Errorf("sched current = %#x, want idle vcpu %#x", cur, IdleVCPUAddr())
	}
	if idle, _ := h.Mem.Peek(SchedAddr() + 8); idle != 1 {
		t.Errorf("cpu not idled")
	}
}

func TestSchedOpIdleAssertCatchesCorruptTarget(t *testing.T) {
	// Corrupt the context-switch target so the ASSERT(is_idle_vcpu) in the
	// idle path fires (paper Listing 2).
	h := newHV(t, 2)
	h.CPU.AssertsEnabled = true
	flipped := false
	h.CPU.PreStep = func(step, pc uint64) {
		in, ok := h.Seg.InstrAt(pc)
		// Flip rdi right at the context_switch call in do_sched_op.
		if ok && in.Op == isa.OpCall && !flipped &&
			h.CPU.Regs[isa.RDI] == IdleVCPUAddr() {
			flipped = true
			// Redirect to a non-idle VCPU structure.
			h.CPU.Regs[isa.RDI] = VCPUAddr(0)
		}
	}
	defer func() { h.CPU.PreStep = nil }()
	res, err := h.Dispatch(&ExitEvent{Reason: HCSchedOp, Dom: 1, Args: [4]uint64{1}}, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != cpu.StopAssert {
		t.Fatalf("stop = %v, want assert", res.Stop)
	}
}

func TestGrantCopyMovesData(t *testing.T) {
	h := newHV(t, 1)
	args, err := PrepareGuestInput(h, 0, HCGrantTableOp, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Dispatch(&ExitEvent{Reason: HCGrantTableOp, Dom: 0, Args: args}, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v", res.Stop, err)
	}
	ref, words := args[1], args[2]
	for i := uint64(0); i < words; i++ {
		src := h.ReadGuestWord(0, grantSrcOff+(ref<<6)+i*8)
		dst := h.ReadGuestWord(0, grantDstOff+(ref<<6)+i*8)
		if src != dst {
			t.Fatalf("word %d: src %#x != dst %#x", i, src, dst)
		}
	}
}

func TestMemoryOpCommitsExtents(t *testing.T) {
	h := newHV(t, 1)
	before, _ := h.Mem.Peek(DomAddr(0) + DomTotPages)
	args, err := PrepareGuestInput(h, 0, HCMemoryOp, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Dispatch(&ExitEvent{Reason: HCMemoryOp, Dom: 0, Args: args}, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v", res.Stop, err)
	}
	after, _ := h.Mem.Peek(DomAddr(0) + DomTotPages)
	if after != before+args[1] {
		t.Errorf("TotPages %d → %d, want +%d", before, after, args[1])
	}
	if res.RetVal != args[1] {
		t.Errorf("retval = %d, want %d", res.RetVal, args[1])
	}
}

func TestDomctlPrivilegeCheck(t *testing.T) {
	h := newHV(t, 2)
	// Dom0 may.
	res, err := h.Dispatch(&ExitEvent{Reason: HCDomctl, Dom: 0, Args: [4]uint64{1, 1}}, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry || res.RetVal != 0 {
		t.Fatalf("dom0 domctl: %v %v ret=%d", res.Stop, err, int64(res.RetVal))
	}
	// DomU may not.
	res, err = h.Dispatch(&ExitEvent{Reason: HCDomctl, Dom: 1, Args: [4]uint64{1, 0}}, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("domU domctl: %v %v", res.Stop, err)
	}
	if int64(res.RetVal) != errEPERM {
		t.Errorf("domU domctl ret = %d, want %d", int64(res.RetVal), int64(errEPERM))
	}
}

func TestIretRejectsClearedIF(t *testing.T) {
	h := newHV(t, 1)
	frame := []uint64{0x400000, 0x000, 0x7FF000, 0x10, 0x18} // IF clear
	if err := h.WriteGuestWords(0, iretFrameOff, frame); err != nil {
		t.Fatal(err)
	}
	res, err := h.Dispatch(&ExitEvent{Reason: HCIret, Dom: 0, Args: [4]uint64{iretFrameOff}}, DefaultBudget)
	if err != nil || res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch: %v %v", res.Stop, err)
	}
	if int64(res.RetVal) != errEINVAL {
		t.Errorf("retval = %d, want EINVAL", int64(res.RetVal))
	}
}

func TestFixupRecoversCorruptedCopy(t *testing.T) {
	// Corrupt RSI after copy_from_user's bounds check so the protected
	// repmovs faults; the fixup must convert it to -EFAULT, not a crash.
	h := newHV(t, 1)
	args, err := PrepareGuestInput(h, 0, HCMemoryOp, 5)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	h.CPU.PreStep = func(step, pc uint64) {
		in, ok := h.Seg.InstrAt(pc)
		if ok && in.Op == isa.OpRepMovs && !flipped {
			flipped = true
			h.CPU.Regs[isa.RSI] ^= 1 << 40
		}
	}
	defer func() { h.CPU.PreStep = nil }()
	res, err := h.Dispatch(&ExitEvent{Reason: HCMemoryOp, Dom: 0, Args: args}, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != cpu.StopVMEntry {
		t.Fatalf("stop = %v (%v), want vmentry via fixup", res.Stop, res.Exc)
	}
	if res.FixedUp != 1 {
		t.Errorf("fixups = %d, want 1", res.FixedUp)
	}
	if int64(res.RetVal) != errEFAULT {
		t.Errorf("retval = %d, want EFAULT", int64(res.RetVal))
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	h := newHV(t, 2)
	snap := h.Snapshot()
	// Mutate state.
	if _, err := h.Dispatch(&ExitEvent{Reason: HCEventChannelOp, Dom: 1, Args: [4]uint64{4, 3}}, DefaultBudget); err != nil {
		t.Fatal(err)
	}
	if got := h.SharedWord(1, SIEvtPending); got == 0 {
		t.Fatal("mutation did not take")
	}
	if err := h.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := h.SharedWord(1, SIEvtPending); got != 0 {
		t.Errorf("pending after restore = %#x, want 0", got)
	}
}

// TestSnapshotCycleAllocFree: once warm, the live snapshot allocates
// nothing, neither when a detection restores it nor when the next VM exit
// replaces it, so a recovery-armed machine makes no per-step garbage.
func TestSnapshotCycleAllocFree(t *testing.T) {
	h := newHV(t, 3)
	ev := &ExitEvent{Reason: HCEventChannelOp, Dom: 1, Args: [4]uint64{4, 3}}
	writes := func() {
		if _, err := h.Dispatch(ev, DefaultBudget); err != nil {
			t.Fatal(err)
		}
	}
	h.Checkpoint() // share every page, as a checkpoint-pool restore leaves them
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"snapshot-writes-restore", func() {
			snap := h.Snapshot()
			writes()
			if err := h.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot-writes-snapshot", func() {
			h.Snapshot()
			writes()
		}},
	} {
		c.cycle()
		c.cycle()
		if n := testing.AllocsPerRun(50, c.cycle); n != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", c.name, n)
		}
	}
}

func TestDispatchValidation(t *testing.T) {
	h := newHV(t, 1)
	if _, err := h.Dispatch(&ExitEvent{Reason: HCIret, Dom: 5}, DefaultBudget); err == nil {
		t.Error("unknown domain accepted")
	}
	if _, err := h.Dispatch(&ExitEvent{Reason: NumExitReasons, Dom: 0}, DefaultBudget); err == nil {
		t.Error("unknown reason accepted")
	}
}

func TestDispatchDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		h := newHV(t, 2)
		var steps, ret uint64
		for i := uint64(0); i < 20; i++ {
			r := ExitReason(i % uint64(NumExitReasons))
			args, err := PrepareGuestInput(h, int(i%2), r, i)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Dispatch(&ExitEvent{Reason: r, Dom: int(i % 2), Args: args}, DefaultBudget)
			if err != nil {
				t.Fatal(err)
			}
			steps += res.Steps
			ret ^= res.RetVal + i
		}
		return steps, ret
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Errorf("nondeterministic dispatch: (%d,%d) vs (%d,%d)", s1, r1, s2, r2)
	}
}

func TestHandlerStepVariance(t *testing.T) {
	// The same exit reason must show varying dynamic lengths across
	// argument seeds (the signature distribution the classifier learns),
	// at least for the data-dependent handlers.
	h := newHV(t, 1)
	varying := 0
	for _, r := range []ExitReason{HCMemoryOp, HCMulticall, HCSetTrapTable, HCMMUUpdate, HCConsoleIO} {
		seen := map[uint64]bool{}
		for rnd := uint64(0); rnd < 16; rnd++ {
			args, err := PrepareGuestInput(h, 0, r, rnd*7919)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Dispatch(&ExitEvent{Reason: r, Dom: 0, Args: args}, DefaultBudget)
			if err != nil || res.Stop != cpu.StopVMEntry {
				t.Fatalf("%v: %v %v", r, res.Stop, err)
			}
			seen[res.Steps] = true
		}
		if len(seen) > 2 {
			varying++
		}
	}
	if varying < 3 {
		t.Errorf("only %d/5 handlers show length variance", varying)
	}
}

func TestTextDigestStableAcrossBuilds(t *testing.T) {
	h1 := newHV(t, 2)
	h2 := newHV(t, 3)
	if h1.TextDigest() == 0 {
		t.Fatal("zero text digest")
	}
	if h1.TextDigest() != h2.TextDigest() {
		t.Fatalf("text digest differs across builds: %#x vs %#x — handler generation is nondeterministic",
			h1.TextDigest(), h2.TextDigest())
	}
}
