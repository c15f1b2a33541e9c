package hv

import (
	"fmt"
	"sort"
	"sync"

	"xentry/internal/cpu"
	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/perf"
)

// Domain is a guest VM. Domain 0 is the privileged control domain; a fault
// that corrupts its state takes the whole system down (paper Section II-A).
type Domain struct {
	ID         int
	Privileged bool
	// VCPU is the domain's VCPU slot in the global VCPU table (this model
	// gives each domain one VCPU, like the paper's injection setup).
	VCPU int
}

// ExitEvent is one VM exit: the reason plus its arguments, produced by the
// guest workload driver.
type ExitEvent struct {
	Reason ExitReason
	// Dom is the domain whose VCPU exited.
	Dom int
	// VCPU is the logical CPU the simulator's scheduler assigned to handle
	// this exit. Zero (the only legal value on a single-CPU machine) keeps
	// the seed semantics: everything runs on CPU 0.
	VCPU int
	// Args are the exit arguments (hypercall args, fault address/error
	// code, interrupt vector ...) loaded into rdi/rsi/rdx/r8.
	Args [4]uint64
}

// Result describes one completed hypervisor execution.
type Result struct {
	// Stop is how the execution ended.
	Stop cpu.StopReason
	// Steps is the dynamic instruction count of the execution.
	Steps uint64
	// Exc is the fatal exception when Stop is StopException.
	Exc *cpu.Exception
	// FixedUp counts benign exceptions recovered through fixup entries.
	FixedUp int
	// AssertPC is the failed assertion's address when Stop is StopAssert.
	AssertPC uint64
	// RetVal is the handler return value (RAX at VM entry).
	RetVal uint64
}

// DefaultBudget is the per-execution instruction watchdog. Fault-free
// handler executions are two orders of magnitude shorter.
const DefaultBudget = 20000

// Hypervisor is the mini-Xen under test: linked handler text, machine
// memory, one or more logical CPUs, and the domain table.
type Hypervisor struct {
	Mem *mem.Memory
	// CPU is logical CPU 0, the seed machine's only CPU. It always aliases
	// CPUs[0]; single-CPU callers keep using it unchanged.
	CPU *cpu.CPU
	// CPUs is the full logical-CPU bank. Every CPU has its own register
	// file, TSC and PMU, but all share the one machine memory,
	// linked text, and — because the interleave model serializes handler
	// executions at activation granularity — the one hypervisor stack.
	CPUs    []*cpu.CPU
	Seg     *cpu.Segment
	Symtab  map[string]uint64
	Fixups  map[uint64]uint64
	Domains []*Domain

	entries      [NumExitReasons]uint64
	retToGuest   uint64
	retToGuestHC uint64
	extents      []progExtent
	textDigest   uint64

	// snap is the hypervisor's one live-recovery snapshot; Snapshot
	// refills it in place so an armed VM exit allocates nothing.
	snap Snap

	// argScratch is the reusable word buffer PrepareGuestInput stages
	// hypercall arguments in; staging runs once per simulated VM exit, so
	// a per-call allocation here dominates a campaign's allocation profile.
	argScratch []uint64

	// salvageScratch is the reusable guest-visible salvage buffer Reinit
	// stages each microreboot in; recovery campaigns reboot once per
	// injection, so a per-call allocation here is a per-injection cost.
	salvageScratch []guestVisible
}

// scratch returns a length-n word buffer reused across PrepareGuestInput
// calls. Callers must not retain it past the staging write.
func (h *Hypervisor) scratch(n uint64) []uint64 {
	if uint64(cap(h.argScratch)) < n {
		h.argScratch = make([]uint64, n)
	}
	return h.argScratch[:n]
}

// progExtent records one linked program's address range.
type progExtent struct {
	name       string
	start, end uint64
}

// linkCache holds the one-time link of the hypervisor handler programs.
// The text segment, symbol table, fixup table, program extents and digest
// are all immutable after linking, so every hypervisor — and every campaign
// worker goroutine — shares them: the CPU fetch fast path reads the same
// dense instruction slice from all workers, and New() no longer reassembles
// and relinks the whole handler set per machine.
var linkCache struct {
	once    sync.Once
	seg     *cpu.Segment
	symtab  map[string]uint64
	fixups  map[uint64]uint64
	extents []progExtent
	digest  uint64
	err     error
}

// linkedText returns the shared linked handler text. Callers must treat
// every returned value as read-only.
func linkedText() (*cpu.Segment, map[string]uint64, map[uint64]uint64, []progExtent, uint64, error) {
	lc := &linkCache
	lc.once.Do(func() {
		progs, err := AllHandlerPrograms()
		if err != nil {
			lc.err = err
			return
		}
		ld := cpu.NewLoader(TextBase)
		for _, p := range progs {
			ld.Add(p)
		}
		lc.seg, lc.symtab, lc.fixups, lc.err = ld.Link()
		if lc.err != nil {
			return
		}
		for _, p := range progs {
			start := lc.symtab[p.Name]
			lc.extents = append(lc.extents, progExtent{p.Name, start, start + p.Size()})
			lc.digest = lc.digest*1099511628211 ^ p.Digest()
		}
		sort.Slice(lc.extents, func(i, j int) bool { return lc.extents[i].start < lc.extents[j].start })
	})
	return lc.seg, lc.symtab, lc.fixups, lc.extents, lc.digest, lc.err
}

// New builds a hypervisor with the given number of domains (domain 0 is
// privileged) and a single logical CPU — the seed machine. All handler
// programs are assembled, linked at TextBase (once per process — the
// linked text is immutable and shared), and the domain/VCPU/shared-info
// structures are initialised.
func New(numDomains int) (*Hypervisor, error) {
	return NewSMP(numDomains, 1)
}

// NewSMP builds a hypervisor with the given number of domains and logical
// CPUs. Every CPU gets its own architectural state and PMU bank; machine
// memory, linked text and the CPUID table are shared. vcpus==1 is exactly
// the seed machine.
func NewSMP(numDomains, vcpus int) (*Hypervisor, error) {
	if vcpus < 1 || vcpus > MaxVCPUs {
		return nil, fmt.Errorf("hv: %d vcpus out of range [1,%d]", vcpus, MaxVCPUs)
	}
	seg, symtab, fixups, extents, digest, err := linkedText()
	if err != nil {
		return nil, err
	}

	m := mem.New()
	if err := MapMachineMemory(m, numDomains); err != nil {
		return nil, err
	}

	h := &Hypervisor{
		Mem:          m,
		Seg:          seg,
		Symtab:       symtab,
		Fixups:       fixups,
		retToGuest:   symtab["ret_to_guest"],
		retToGuestHC: symtab["ret_to_guest_hypercall"],
		extents:      extents,
		textDigest:   digest,
		snap:         Snap{tscs: make([]uint64, vcpus)},
	}

	cpuidTable := map[uint64][4]uint64{
		0: {0xD, 0x756E6547, 0x6C65746E, 0x49656E69}, // "GenuineIntel"
		1: {0x000106A5, 0x00100800, 0x009CE3BD, 0xBFEBFBFF},
		2: {0x55035A01, 0x00F0B2E4, 0x00000000, 0x09CA212C},
	}
	h.CPUs = make([]*cpu.CPU, vcpus)
	for i := range h.CPUs {
		h.CPUs[i] = cpu.New(m, seg, perf.New())
		h.CPUs[i].CpuidTable = cpuidTable
	}
	h.CPU = h.CPUs[0]
	for r := ExitReason(0); r < NumExitReasons; r++ {
		addr, ok := symtab[r.Handler()]
		if !ok {
			return nil, fmt.Errorf("hv: handler %q not linked", r.Handler())
		}
		h.entries[r] = addr
	}

	for d := 0; d < numDomains; d++ {
		dom := &Domain{ID: d, Privileged: d == 0, VCPU: d}
		h.Domains = append(h.Domains, dom)
		if err := h.initDomain(dom); err != nil {
			return nil, err
		}
	}
	if err := h.initIdleVCPU(); err != nil {
		return nil, err
	}
	if err := h.initConstPool(); err != nil {
		return nil, err
	}
	return h, nil
}

// initDomain writes a domain's structures into hypervisor data memory, in
// a fixed order: the first write to each page copies it from the zero
// page (or from a checkpoint) and journals it, so the write order is the
// dirty journal's order.
func (h *Hypervisor) initDomain(d *Domain) error {
	base := DomAddr(d.ID)
	priv := uint64(0)
	if d.Privileged {
		priv = 1
	}
	vb := VCPUAddr(d.VCPU)
	fields := [...]struct{ addr, val uint64 }{
		{base + DomIDField, uint64(d.ID)},
		{base + DomNVcpus, 1},
		{base + DomTotPages, 4096},
		{base + DomMaxPages, 65536},
		{base + DomSharedInfo, SharedInfoAddr(d.ID)},
		{base + DomPrivileged, priv},
		{base + DomEvtchnWord, EvtchnAddr(d.ID)},
		{vb + VCPUDomID, uint64(d.ID)},
		{vb + VCPUID, uint64(d.VCPU)},
	}
	for _, f := range fields {
		if err := h.Mem.Poke(f.addr, f.val); err != nil {
			return err
		}
	}
	return nil
}

// initIdleVCPU marks the reserved idle VCPU slot.
func (h *Hypervisor) initIdleVCPU() error {
	vb := IdleVCPUAddr()
	if err := h.Mem.Poke(vb+VCPUIsIdle, 1); err != nil {
		return err
	}
	return h.Mem.Poke(vb+VCPUID, uint64(IdleVCPUID))
}

// initConstPool writes the version block do_xen_version serves.
func (h *Hypervisor) initConstPool() error {
	for i, v := range []uint64{4, 1, 2, 0x78656E} { // 4.1.2 "xen"
		if err := h.Mem.Poke(ConstPoolAddr()+uint64(i)*8, v); err != nil {
			return err
		}
	}
	return nil
}

// EntryFor returns the handler entry address of an exit reason.
func (h *Hypervisor) EntryFor(r ExitReason) uint64 { return h.entries[r] }

// NumVCPUs returns the number of logical CPUs.
func (h *Hypervisor) NumVCPUs() int { return len(h.CPUs) }

// CPUFor returns the logical CPU assigned to handle an exit event,
// falling back to CPU 0 for out-of-range assignments (the single-CPU
// machine never sees anything else).
func (h *Hypervisor) CPUFor(ev *ExitEvent) *cpu.CPU {
	if ev.VCPU > 0 && ev.VCPU < len(h.CPUs) {
		return h.CPUs[ev.VCPU]
	}
	return h.CPUs[0]
}

// ArchHash fingerprints the architectural state of the whole CPU bank.
// On a single-CPU machine it is exactly CPU 0's ArchHash — the value the
// pre-SMP convergence fingerprints recorded — and on an SMP machine it is
// an order-dependent FNV-style fold over every CPU.
func (h *Hypervisor) ArchHash() uint64 {
	if len(h.CPUs) == 1 {
		return h.CPUs[0].ArchHash()
	}
	var x uint64 = 1469598103934665603
	for _, c := range h.CPUs {
		x = (x ^ c.ArchHash()) * 1099511628211
	}
	return x
}

// UncoreHash fingerprints the machine state that lives outside the
// architectural register files and outside guest memory: every logical
// CPU's PMU bank (armed flag plus the four event counters) and the D-TLB
// poison summary. Together with ArchHash and the memory page fold this
// makes the convergence fingerprint machine-wide — the APIC mailbox and
// page-table words live in hv_data, so the page fold already covers them.
// The fold is FNV-style (xor then multiply by an odd prime), which is
// bijective in each input word given the others: any single-bit flip in
// any folded word changes the hash, the property the fingerprint
// soundness fuzzer asserts.
func (h *Hypervisor) UncoreHash() uint64 {
	var x uint64 = 1469598103934665603
	for _, c := range h.CPUs {
		st := c.PMU.State()
		var armed uint64
		if st.Armed {
			armed = 1
		}
		x = (x ^ armed) * 1099511628211
		for _, n := range st.Counts {
			x = (x ^ n) * 1099511628211
		}
	}
	x = (x ^ h.Mem.TLBHash()) * 1099511628211
	return x
}

// HomeCPU returns the logical CPU a domain's cross-CPU event kicks are
// routed through (its statically assigned "home" APIC).
func (h *Hypervisor) HomeCPU(dom int) int { return dom % len(h.CPUs) }

// QueueCrossEvents implements the send half of the SMP cross-CPU event
// contract. After an activation for exceptDom completes, any event-channel
// bits a handler raised in *another* domain's shared-info page are not yet
// guest-visible on that domain's CPU: they are swept into the domain's
// deferred payload word and a pending-IRQ bit is raised in the home CPU's
// APIC word (the IPI-style kick). DeliverIPI re-asserts them when the
// target domain next runs. Single-CPU machines never call this — events
// stay in shared info, the seed semantics.
func (h *Hypervisor) QueueCrossEvents(exceptDom int) error {
	for _, d := range h.Domains {
		if d.ID == exceptDom {
			continue
		}
		w, err := h.Mem.Peek(SharedInfoAddr(d.ID) + SIEvtPending)
		if err != nil || w == 0 {
			continue
		}
		pay, _ := h.Mem.Peek(APICPayloadAddr(d.ID))
		if err := h.Mem.Poke(APICPayloadAddr(d.ID), pay|w); err != nil {
			return err
		}
		if err := h.Mem.Poke(SharedInfoAddr(d.ID)+SIEvtPending, 0); err != nil {
			return err
		}
		irr, _ := h.Mem.Peek(APICAddr(h.HomeCPU(d.ID)))
		if err := h.Mem.Poke(APICAddr(h.HomeCPU(d.ID)), irr|1<<uint(d.ID)); err != nil {
			return err
		}
	}
	return nil
}

// DeliverIPI is the receive half of the cross-CPU event contract: before a
// domain's next activation dispatches, a pending-IRQ bit for it in its
// home CPU's APIC word is consumed and the deferred payload re-asserted
// into the domain's shared-info pending word. A soft error that clears the
// APIC bit therefore loses the kick — the guest misses events it saw in
// the golden run, a one-VM failure — which is what makes the APIC word a
// load-bearing injection target.
func (h *Hypervisor) DeliverIPI(dom int) error {
	irr, err := h.Mem.Peek(APICAddr(h.HomeCPU(dom)))
	if err != nil || irr&(1<<uint(dom)) == 0 {
		return err
	}
	if err := h.Mem.Poke(APICAddr(h.HomeCPU(dom)), irr&^(1<<uint(dom))); err != nil {
		return err
	}
	pay, _ := h.Mem.Peek(APICPayloadAddr(dom))
	if pay != 0 {
		si, _ := h.Mem.Peek(SharedInfoAddr(dom) + SIEvtPending)
		if err := h.Mem.Poke(SharedInfoAddr(dom)+SIEvtPending, si|pay); err != nil {
			return err
		}
		if err := h.Mem.Poke(APICPayloadAddr(dom), 0); err != nil {
			return err
		}
	}
	return nil
}

// TextDigest fingerprints the loaded hypervisor text (pre-link program
// encodings). Identical digests guarantee that two machines execute
// identical handler code — the auditability anchor for whole-campaign
// determinism.
func (h *Hypervisor) TextDigest() uint64 { return h.textDigest }

// SymbolFor returns the name of the handler program containing pc, or ""
// when pc is outside the text segment.
func (h *Hypervisor) SymbolFor(pc uint64) string {
	lo, hi := 0, len(h.extents)
	for lo < hi {
		mid := (lo + hi) / 2
		e := h.extents[mid]
		switch {
		case pc < e.start:
			hi = mid
		case pc >= e.end:
			lo = mid + 1
		default:
			return e.name
		}
	}
	return ""
}

// Dispatch runs the handler for one VM exit to completion, applying
// exception fixups (the benign-fault path hardware exceptions must be
// filtered against). The caller owns PMU arming and detection; Dispatch is
// the unmodified-Xen execution path.
func (h *Hypervisor) Dispatch(ev *ExitEvent, budget uint64) (Result, error) {
	if ev.Dom < 0 || ev.Dom >= len(h.Domains) {
		return Result{}, fmt.Errorf("hv: dispatch for unknown domain %d", ev.Dom)
	}
	if ev.Reason >= NumExitReasons {
		return Result{}, fmt.Errorf("hv: dispatch for unknown exit reason %d", ev.Reason)
	}
	dom := h.Domains[ev.Dom]
	c := h.CPUFor(ev)

	// Architectural entry state (the VM-exit trampoline's work).
	c.Reset()
	r := &c.Regs
	r[isa.RIP] = h.entries[ev.Reason]
	r[isa.RDI], r[isa.RSI], r[isa.RDX], r[isa.R8] = ev.Args[0], ev.Args[1], ev.Args[2], ev.Args[3]
	r[isa.RBP] = VCPUAddr(dom.VCPU)
	r[isa.R10] = DomAddr(dom.ID)
	r[isa.R11] = SharedInfoAddr(dom.ID)
	r[isa.R12] = GuestBufAddr(dom.ID)
	r[isa.R13] = ScratchAddr()
	// Park the guest register frame at the top of the hypervisor stack
	// (the VM-exit trampoline's saved frame, restored by ret_to_guest).
	for i := 0; i < GuestFrameWords; i++ {
		v := h.VCPUWord(dom.VCPU, VCPUSavedRegs+uint64(13+i)*8)
		if err := h.Mem.Poke(GuestFrameAddr()+uint64(i)*8, v); err != nil {
			return Result{}, fmt.Errorf("hv: parking guest frame: %w", err)
		}
	}
	r[isa.RSP] = StackTop() - 8
	retStub := h.retToGuest
	if ev.Reason.Category() == CatHypercall {
		retStub = h.retToGuestHC
	}
	if err := h.Mem.Write64(r[isa.RSP], retStub); err != nil {
		return Result{}, fmt.Errorf("hv: pushing return address: %w", err)
	}

	var res Result
	remaining := budget
	for {
		rr := c.Run(remaining)
		res.Steps += rr.Steps
		if remaining <= rr.Steps {
			remaining = 0
		} else {
			remaining -= rr.Steps
		}
		if rr.Reason == cpu.StopException && remaining > 0 {
			if fix, ok := h.Fixups[rr.Exc.PC]; ok {
				// Benign fault: resume at the fixup with -EFAULT.
				res.FixedUp++
				r[isa.RIP] = fix
				var efault int64 = errEFAULT
				r[isa.RAX] = uint64(efault)
				continue
			}
		}
		res.Stop = rr.Reason
		res.Exc = rr.Exc
		res.AssertPC = rr.AssertPC
		break
	}
	res.RetVal = r[isa.RAX]

	return res, nil
}

// Snap is the live-recovery snapshot: every CPU's TSC to rewind to, taken
// together with an undo epoch over machine memory (mem.Memory.Mark).
// Unlike Checkpoint it holds no register file and no PMU. Between a
// snapshot and its restore only the re-entered CPU executes, and Dispatch
// rebuilds that CPU's entry state from the exit event and memory, so every
// other CPU's registers are still the snapshot's; the sentry rearms, and so
// zeroes, a PMU bank at every execution that reads it. What the
// re-execution costs is charged by sim.Machine.Clock, outside the CPU, so a
// restored run that retraces the fault-free activation ends it in exactly
// the fault-free state, on any number of CPUs.
//
// A hypervisor has one live snapshot. Snapshot refills the same Snap and
// opens a fresh epoch, so an earlier snapshot is gone; Checkpoint and
// RestoreFrom end the epoch, and a Restore after either fails.
type Snap struct {
	tscs []uint64
}

// Snapshot takes the hypervisor's live snapshot, replacing the previous
// one: it records every CPU's TSC and opens an undo epoch over machine
// memory. It costs the pages written since the last snapshot or
// checkpoint, allocates nothing once warm, and, like Checkpoint, drops
// every D-TLB entry.
func (h *Hypervisor) Snapshot() *Snap {
	for i, c := range h.CPUs {
		h.snap.tscs[i] = c.TSC
	}
	h.Mem.Mark()
	return &h.snap
}

// Checkpoint is a complete hypervisor-level machine image: every CPU's
// architectural state (registers and TSC), its PMU, and a copy-on-write
// image of machine memory. Unlike the partial Snapshot/Restore pair
// (memory and TSC, taken at a VM exit where the register file is dead),
// restoring a Checkpoint reproduces the hypervisor bit-for-bit at any
// point — the property the campaign engine's shared checkpoint pool
// depends on. Checkpoints are immutable and safe to restore into many
// hypervisors concurrently.
type Checkpoint struct {
	cpus []cpu.State
	pmus []perf.State
	mem  *mem.Checkpoint
}

// MemImage exposes the checkpoint's copy-on-write memory image, the
// incremental-hash base for convergence fingerprints of machines restored
// from this checkpoint (mem.Memory.FoldFrom).
func (cp *Checkpoint) MemImage() *mem.Checkpoint {
	return cp.mem
}

// Checkpoint captures the hypervisor's complete mutable state. It is cheap:
// memory is captured copy-on-write, sharing every page-table chunk the
// pages written since the previous checkpoint did not touch.
func (h *Hypervisor) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		cpus: make([]cpu.State, len(h.CPUs)),
		pmus: make([]perf.State, len(h.CPUs)),
		mem:  h.Mem.Checkpoint(),
	}
	for i, c := range h.CPUs {
		cp.cpus[i] = c.State()
		cp.pmus[i] = c.PMU.State()
	}
	return cp
}

// RestoreFrom reinstates a Checkpoint taken from an identically configured
// hypervisor (same domain and CPU counts, hence same memory layout).
func (h *Hypervisor) RestoreFrom(cp *Checkpoint) error {
	if len(cp.cpus) != len(h.CPUs) {
		return fmt.Errorf("hv: checkpoint has %d CPUs, machine has %d", len(cp.cpus), len(h.CPUs))
	}
	if err := h.Mem.RestoreCheckpoint(cp.mem); err != nil {
		return err
	}
	for i, c := range h.CPUs {
		c.RestoreState(cp.cpus[i])
		c.PMU.RestoreState(cp.pmus[i])
	}
	return nil
}

// Restore reinstates the live snapshot: memory rolls back through the
// undo epoch, which stays open, so the same snapshot can be restored
// again, and every CPU's TSC rewinds to the snapshot's. Register files are
// left alone: the idle CPUs' still hold the snapshot's state, and the
// re-entered CPU's is rebuilt by the next Dispatch. The re-execution's
// cost is charged by the caller's clock (sim.Machine.Clock). snap must be
// the Snap the latest Snapshot returned; Restore fails when the epoch has
// ended since.
func (h *Hypervisor) Restore(snap *Snap) error {
	if err := h.Mem.Rollback(); err != nil {
		return fmt.Errorf("hv: restore snapshot: %w", err)
	}
	for i, c := range h.CPUs {
		c.TSC = snap.tscs[i]
	}
	return nil
}

// VCPUWord reads a word from a VCPU structure (monitoring helper).
func (h *Hypervisor) VCPUWord(vcpu int, off uint64) uint64 {
	v, err := h.Mem.Peek(VCPUAddr(vcpu) + off)
	if err != nil {
		return 0
	}
	return v
}

// SharedWord reads a word from a domain's shared-info page.
func (h *Hypervisor) SharedWord(dom int, off uint64) uint64 {
	v, err := h.Mem.Peek(SharedInfoAddr(dom) + off)
	if err != nil {
		return 0
	}
	return v
}

// WriteGuestWords writes values into a domain's guest buffer at the given
// word offset (the guest preparing hypercall arguments).
func (h *Hypervisor) WriteGuestWords(dom int, byteOff uint64, vals []uint64) error {
	base := GuestBufAddr(dom) + byteOff
	if err := h.Mem.PokeRange(base, vals); err == nil {
		return nil
	}
	// Range crossed a region boundary: fall back to word-at-a-time pokes,
	// which land the in-range prefix before reporting the fault (the
	// behavior staging code observed before PokeRange existed).
	for i, v := range vals {
		if err := h.Mem.Poke(base+uint64(i)*8, v); err != nil {
			return err
		}
	}
	return nil
}

// ReadGuestWord reads one word from a domain's guest buffer.
func (h *Hypervisor) ReadGuestWord(dom int, byteOff uint64) uint64 {
	v, err := h.Mem.Peek(GuestBufAddr(dom) + byteOff)
	if err != nil {
		return 0
	}
	return v
}

// SetSavedReg writes a guest saved register (guest state before the exit,
// e.g. the cpuid leaf in saved rax).
func (h *Hypervisor) SetSavedReg(vcpu, idx int, val uint64) error {
	return h.Mem.Poke(VCPUAddr(vcpu)+VCPUSavedRegs+uint64(idx)*8, val)
}

// SavedReg reads a guest saved register.
func (h *Hypervisor) SavedReg(vcpu, idx int) uint64 {
	return h.VCPUWord(vcpu, VCPUSavedRegs+uint64(idx)*8)
}

// SavedRegs reads a VCPU's whole saved-register file into regs in one
// ranged read (one region lookup instead of sixteen). Missing words read
// as zero, matching per-word SavedReg calls. regs is the caller's, so the
// 128-byte file is not copied out again.
func (h *Hypervisor) SavedRegs(vcpu int, regs *[16]uint64) {
	if err := h.Mem.PeekRange(VCPUAddr(vcpu)+VCPUSavedRegs, regs[:]); err != nil {
		for i := range regs {
			regs[i] = h.SavedReg(vcpu, i)
		}
	}
}

// ReadGuestWords reads consecutive words from a domain's guest buffer in
// one ranged read, falling back to per-word reads (zero on fault) when the
// range crosses out of the mapped buffer.
func (h *Hypervisor) ReadGuestWords(dom int, byteOff uint64, out []uint64) {
	if err := h.Mem.PeekRange(GuestBufAddr(dom)+byteOff, out); err != nil {
		for i := range out {
			out[i] = h.ReadGuestWord(dom, byteOff+uint64(i)*8)
		}
	}
}

// ClearEventPending clears a domain's delivered event state (the guest
// acknowledging its pending events).
func (h *Hypervisor) ClearEventPending(dom int) error {
	d := h.Domains[dom]
	if err := h.Mem.Poke(EvtchnAddr(dom), 0); err != nil {
		return err
	}
	if err := h.Mem.Poke(SharedInfoAddr(dom)+SIEvtPending, 0); err != nil {
		return err
	}
	return h.Mem.Poke(VCPUAddr(d.VCPU)+VCPUPendingEv, 0)
}
