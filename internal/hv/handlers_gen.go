package hv

import (
	"fmt"
	"sort"

	"xentry/internal/isa"
	"xentry/internal/rng"
)

// Template-generated handlers for the exit reasons whose Xen counterparts
// share structure: exception bounce handlers, APIC interrupt handlers, and
// the long tail of hypercalls. Each generated handler is a distinct program
// — structure (validation bounds, loop shapes, memory traffic, helper
// calls) is drawn deterministically from a per-name seed so signatures
// differ across exit reasons but are stable across builds, which is what
// the VM transition detector learns.

// seedFor returns the generator for a handler's structural choices,
// seeded with the FNV-1a hash of its name.
func seedFor(name string) *rng.RNG {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return rng.New(int64(h))
}

// makeBounceHandler generates an exception handler that inspects the fault,
// does vector-specific bookkeeping, and bounces the exception to the guest.
// nmi-class handlers (bounce=false) only account the event.
func makeBounceHandler(name string, vector int64, bounce bool) *isa.Program {
	r := seedFor(name)
	b := isa.NewBuilder(name).
		Push(isa.RBX)
	// Vector-specific bookkeeping: 1-4 loads/stores over scratch slots.
	n := int(r.Uint64()%4) + 1
	for i := 0; i < n; i++ {
		slot := int64(r.Uint64()%32)*8 + 0x700
		b.Load(isa.RDX, isa.R13, slot).
			AddImm(isa.RDX, 1).
			Store(isa.RDX, isa.R13, slot)
	}
	if r.Uint64()%2 == 0 {
		b.CallSym("update_runstate")
	}
	if bounce {
		b.MovImm(isa.RDI, vector).
			CallSym("create_bounce_frame")
	}
	return b.MovImm(isa.RAX, errOK).
		Pop(isa.RBX).
		Ret().
		MustBuild()
}

// makeAPICHandler generates an APIC interrupt handler: EOI over MMIO, then
// a seeded amount of per-vector work (counter updates, scan loops).
func makeAPICHandler(name string, vector int64) *isa.Program {
	r := seedFor(name)
	b := isa.NewBuilder(name).
		Push(isa.RBX).
		MovImm(isa.RBX, MMIOBase).
		MovImm(isa.RDX, vector).
		Store(isa.RDX, isa.RBX, 0) // EOI
	// Fixed-trip scan loop (2-6 iterations) over a per-handler table.
	trips := int64(r.Uint64()%5) + 2
	slot := int64(r.Uint64()%16)*8 + 0x800
	b.MovImm(isa.RCX, trips).
		MovImm(isa.R9, int64(ScratchAddr())+slot).
		Label("scan").
		Load(isa.RDX, isa.R9, 0).
		AddImm(isa.RDX, 1).
		Store(isa.RDX, isa.R9, 0).
		AddImm(isa.R9, 8).
		Loop("scan")
	if r.Uint64()%2 == 0 {
		b.CallSym("update_runstate")
	}
	if r.Uint64()%3 == 0 {
		// Kick an event channel.
		b.MovImm(isa.RDI, int64(r.Uint64()%MaxEvtchnPorts)).
			CallSym("evtchn_set_pending")
	}
	return b.MovImm(isa.RAX, errOK).
		Pop(isa.RBX).
		Ret().
		MustBuild()
}

// genericHypercallProfile controls the structure of a generated hypercall.
type genericHypercallProfile struct {
	// argBound validates arg0 (rdi) < argBound, else -EINVAL.
	argBound int64
	// copyWordsMod: when >0, copy (arg1 mod copyWordsMod)+1 words from the
	// guest offset in arg2.
	copyWordsMod int64
	// loopMod: body loop trips = (arg1 mod loopMod)+1.
	loopMod int64
	// stores per loop iteration (1-3).
	stores int
	// callRunstate / callEvtchn add helper calls.
	callRunstate bool
	callEvtchn   bool
	// writeVCPU stores the computed result into a VCPU saved register.
	writeVCPU bool
}

// makeGenericHypercall generates a hypercall handler with the given
// profile.
//
//	rdi = arg0 (validated), rsi = arg1 (size/count), rdx = arg2 (guest offset)
func makeGenericHypercall(name string, p genericHypercallProfile) *isa.Program {
	r := seedFor(name)
	b := isa.NewBuilder(name).
		Push(isa.RBX).
		Push(isa.R14)
	b.CmpImm(isa.RDI, p.argBound).
		Jae("einval")
	if p.copyWordsMod > 0 {
		// words = (arg1 mod m) + 1
		b.Mov(isa.RCX, isa.RSI).
			AndImm(isa.RCX, p.copyWordsMod-1). // power-of-two mod
			AddImm(isa.RCX, 1).
			Mov(isa.R14, isa.RCX).
			Mov(isa.RSI, isa.RDX).
			MovImm(isa.RDI, int64(ScratchAddr())+0x900+int64(r.Uint64()%8)*128).
			CallSym("copy_from_user").
			CmpImm(isa.RAX, 0).
			Jne("out")
	}
	// Body loop. Each iteration chases a pointer computed from loaded
	// data, like Xen's list walks — so a corrupted register is very likely
	// to produce a wild dereference (#PF) rather than silent corruption.
	slot := int64(ScratchAddr()) + 0xC00 + int64(r.Uint64()%16)*64
	b.Mov(isa.RCX, isa.RSI).
		AndImm(isa.RCX, p.loopMod-1).
		AddImm(isa.RCX, 1).
		MovImm(isa.RBX, 0).
		MovImm(isa.R9, slot).
		Label("body")
	b.Load(isa.RDX, isa.R9, 0).
		Add(isa.RBX, isa.RDX).
		// Pointer chase: entry = table[data & 63].
		AndImm(isa.RDX, 63).
		ShlImm(isa.RDX, 3).
		Add(isa.RDX, isa.R13).
		Load(isa.RDX, isa.RDX, 0).
		Add(isa.RBX, isa.RDX)
	for s := 0; s < p.stores; s++ {
		b.Store(isa.RBX, isa.R9, int64(s+1)*8)
	}
	b.AddImm(isa.R9, 8).
		Loop("body")
	if p.callRunstate {
		b.CallSym("update_runstate")
	}
	if p.callEvtchn {
		b.MovImm(isa.RDI, int64(r.Uint64()%MaxEvtchnPorts)).
			CallSym("evtchn_set_pending")
	}
	if p.writeVCPU {
		b.Store(isa.RBX, isa.RBP, VCPUSavedRegs+11*8)
	}
	b.MovImm(isa.RAX, errOK).
		Label("out").
		Pop(isa.R14).
		Pop(isa.RBX).
		Ret().
		Label("einval").
		MovImm(isa.RAX, errEINVAL).
		Jmp("out")
	return b.MustBuild()
}

// makeCompatShim generates a compat-ABI wrapper that massages arguments
// and tail-jumps into the modern handler.
func makeCompatShim(name, target string) *isa.Program {
	return isa.NewBuilder(name).
		// Compat translation: ops shift by one in the old ABI.
		AndImm(isa.RDI, 0x7).
		JmpSym(target).
		MustBuild()
}

// makeDebugregHandler generates set/get debugreg handlers over the VCPU's
// debug register file (four architectural slots in this model).
func makeDebugregHandler(name string, set bool) *isa.Program {
	b := isa.NewBuilder(name).
		Push(isa.RBX).
		CmpImm(isa.RDI, 4).
		Jae("einval").
		Mov(isa.RBX, isa.RDI).
		ShlImm(isa.RBX, 3).
		Add(isa.RBX, isa.RBP)
	if set {
		b.Store(isa.RSI, isa.RBX, VCPUDebugreg)
	} else {
		b.Load(isa.RAX, isa.RBX, VCPUDebugreg).
			Store(isa.RAX, isa.RBP, VCPUSavedRegs+12*8)
	}
	return b.MovImm(isa.RAX, errOK).
		Pop(isa.RBX).
		Ret().
		Label("einval").
		MovImm(isa.RAX, errEINVAL).
		Pop(isa.RBX).
		Ret().
		MustBuild()
}

// sortedKeys returns the map's keys in sorted order so the text layout is
// deterministic across builds (map iteration order is randomized in Go).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// generatedHandlers assembles every template-generated handler.
func generatedHandlers() []*isa.Program {
	var progs []*isa.Program

	// Exception handlers not written by hand. do_page_fault and
	// do_general_protection are bespoke; NMI/debug/spurious classes
	// account without bouncing.
	bounce := map[string]struct {
		vector int64
		bounce bool
	}{
		"do_divide_error":         {0, true},
		"do_debug":                {1, false},
		"do_nmi":                  {2, false},
		"do_int3":                 {3, true},
		"do_overflow":             {4, true},
		"do_bounds":               {5, true},
		"do_invalid_op":           {6, true},
		"do_device_not_available": {7, true},
		"do_double_fault":         {8, false},
		"do_coproc_seg_overrun":   {9, true},
		"do_invalid_tss":          {10, true},
		"do_segment_not_present":  {11, true},
		"do_stack_segment":        {12, true},
		"do_spurious_interrupt":   {15, false},
		"do_coproc_error":         {16, true},
		"do_alignment_check":      {17, true},
		"do_simd_error":           {19, true},
	}
	for _, name := range sortedKeys(bounce) {
		cfg := bounce[name]
		progs = append(progs, makeBounceHandler(name, cfg.vector, cfg.bounce))
	}

	// APIC handlers beyond the bespoke timer.
	apic := map[string]int64{
		"do_apic_error":            0xFE,
		"do_apic_spurious":         0xFF,
		"do_apic_thermal":          0xFA,
		"do_apic_perfctr":          0xF9,
		"do_apic_cmci":             0xF8,
		"do_apic_event_check":      0xF5,
		"do_apic_invalidate":       0xF4,
		"do_apic_call_function":    0xF3,
		"do_apic_irq_move_cleanup": 0xE0,
	}
	for _, name := range sortedKeys(apic) {
		progs = append(progs, makeAPICHandler(name, apic[name]))
	}

	// Tasklet processing shares the APIC template shape.
	progs = append(progs, makeAPICHandler("do_tasklet", 0xEC))

	// Compat shims delegate to their modern counterparts.
	progs = append(progs,
		makeCompatShim("do_sched_op_compat", "do_sched_op"),
		makeCompatShim("do_event_channel_op_compat", "do_event_channel_op"),
		makeCompatShim("do_physdev_op_compat", "do_physdev_op"),
	)

	// Debug register accessors.
	progs = append(progs,
		makeDebugregHandler("do_set_debugreg", true),
		makeDebugregHandler("do_get_debugreg", false),
	)

	// Remaining hypercalls from the generic template. Profiles vary
	// validation bounds, copy traffic, loop shapes, helper calls and
	// guest-visible writes so each reason has its own counter signature.
	generic := map[string]genericHypercallProfile{
		"do_set_gdt":        {argBound: 16, copyWordsMod: 16, loopMod: 16, stores: 1, writeVCPU: true},
		"do_stack_switch":   {argBound: 4, loopMod: 2, stores: 1, writeVCPU: true},
		"do_set_callbacks":  {argBound: 8, loopMod: 4, stores: 2},
		"do_fpu_taskswitch": {argBound: 2, loopMod: 2, stores: 1, callRunstate: true},
		"do_platform_op":    {argBound: 64, copyWordsMod: 8, loopMod: 8, stores: 2, callRunstate: true},
		"do_update_descriptor": {
			argBound: 32, copyWordsMod: 4, loopMod: 4, stores: 1, writeVCPU: true},
		"do_update_va_mapping": {argBound: 8, loopMod: 8, stores: 3},
		"do_update_va_mapping_otherdomain": {
			argBound: 8, loopMod: 8, stores: 3, callRunstate: true},
		"do_vm_assist":        {argBound: 8, loopMod: 2, stores: 1},
		"do_set_segment_base": {argBound: 4, loopMod: 2, stores: 1, writeVCPU: true},
		"do_mmuext_op":        {argBound: 32, copyWordsMod: 16, loopMod: 16, stores: 2},
		"do_xsm_op":           {argBound: 16, loopMod: 4, stores: 1},
		"do_nmi_op":           {argBound: 4, loopMod: 2, stores: 1, callRunstate: true},
		"do_callback_op":      {argBound: 8, loopMod: 4, stores: 2},
		"do_xenoprof_op":      {argBound: 16, copyWordsMod: 8, loopMod: 8, stores: 1},
		"do_physdev_op":       {argBound: 32, loopMod: 8, stores: 2, callEvtchn: true},
		"do_hvm_op":           {argBound: 16, copyWordsMod: 8, loopMod: 8, stores: 2, writeVCPU: true},
		"do_sysctl":           {argBound: 64, copyWordsMod: 8, loopMod: 8, stores: 2, callRunstate: true},
		"do_kexec_op":         {argBound: 4, copyWordsMod: 16, loopMod: 16, stores: 1},
		"do_tmem_op":          {argBound: 8, copyWordsMod: 32, loopMod: 32, stores: 2},
	}
	for _, name := range sortedKeys(generic) {
		progs = append(progs, makeGenericHypercall(name, generic[name]))
	}

	return progs
}

// AllHandlerPrograms returns every program loaded into the hypervisor text
// segment: helpers, signature handlers, and generated handlers.
func AllHandlerPrograms() ([]*isa.Program, error) {
	progs := append(helperPrograms(), signatureHandlers()...)
	progs = append(progs, generatedHandlers()...)
	seen := make(map[string]bool, len(progs))
	for _, p := range progs {
		if seen[p.Name] {
			return nil, fmt.Errorf("hv: duplicate handler program %q", p.Name)
		}
		seen[p.Name] = true
	}
	// Every exit reason must have its handler present.
	for r := ExitReason(0); r < NumExitReasons; r++ {
		if !seen[r.Handler()] {
			return nil, fmt.Errorf("hv: exit reason %v missing handler %q", r, r.Handler())
		}
	}
	return progs, nil
}
