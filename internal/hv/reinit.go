package hv

// ReHype-style microreboot (DESIGN.md §12). Reinit rebuilds the
// hypervisor's private state while the guest-visible machine survives: a
// detected error means some hypervisor structure may be corrupted, so
// instead of trusting it the engine throws the whole private state away and
// reconstructs it the same way New does at boot — but without losing the
// guests that were running on top of it.

import (
	"errors"
	"fmt"
)

// ErrSalvage marks a microreboot that aborted because the guest-visible
// state it must salvage failed integrity validation — the fault corrupted
// the very structures a reboot would carry over, so carrying them over
// would hand every guest a corrupted machine. ReHype reports exactly this
// class of unrecoverable latent corruption in preserved state as its
// dominant failed-recovery cause. The hypervisor is left untouched: the
// detection stands and the run fails as it would have without recovery.
var ErrSalvage = errors.New("salvaged guest state failed integrity validation")

// guestVisible is the per-domain state a microreboot must carry across the
// reboot: the VCPU structure (guest register snapshot, pending-event and
// event-selector words, registered trap vector, armed timer deadline, debug
// registers, runstate timestamps) and the domain's event-channel pending
// word. Everything else inside hv_data is hypervisor-private and is
// deliberately lost.
type guestVisible struct {
	vcpu   [VCPUSize / 8]uint64
	evtchn uint64
}

// validateSalvage checks the integrity of the guest-visible state a
// microreboot is about to carry across the reboot, before anything is
// mutated — on failure the machine is exactly as the detection left it.
// The checks are the invariants boot-time initialisation establishes and
// no legal execution breaks:
//
//   - the VCPU identity words (owning domain, VCPU id, idle flag) must
//     match the domain table — these are hypervisor-written constants, so
//     a mismatch means the fault landed in the very words being salvaged;
//   - the registered trap vector must respect the Listing-1 bound
//     (TrapNr <= MaxTraps) that do_set_trap_table enforces on every write;
//   - the shared-info time version must be even: the timer handler
//     increments it to odd, fills the time fields, and increments it back,
//     so an odd version means the fault killed the handler mid-update and
//     the guest-visible clock words are torn.
func (h *Hypervisor) validateSalvage(saved []guestVisible) error {
	for i, d := range h.Domains {
		v := saved[i].vcpu
		if v[VCPUDomID/8] != uint64(d.ID) || v[VCPUID/8] != uint64(d.VCPU) || v[VCPUIsIdle/8] != 0 {
			return fmt.Errorf("hv: reinit: vcpu %d identity words corrupted: %w", d.VCPU, ErrSalvage)
		}
		if v[VCPUTrapNr/8] > MaxTraps {
			return fmt.Errorf("hv: reinit: vcpu %d trap vector %d out of range: %w", d.VCPU, v[VCPUTrapNr/8], ErrSalvage)
		}
		tv, err := h.Mem.Peek(SharedInfoAddr(d.ID) + SITimeVersion)
		if err != nil {
			return fmt.Errorf("hv: reinit: reading time version %d: %w", d.ID, err)
		}
		if tv%2 != 0 {
			return fmt.Errorf("hv: reinit: domain %d time version %d torn mid-update: %w", d.ID, tv, ErrSalvage)
		}
	}
	return nil
}

// Reinit microreboots the hypervisor. Guest memory pages (shared-info and
// guest-buffer regions) and vCPU guest-visible state are preserved; the
// hypervisor's private data and stack are rebuilt; the CPU's architectural
// state is reset; the TSC keeps its current value — time flows through a
// reboot, unlike the Section VI Restore path which rewinds it.
//
// Before touching anything Reinit validates the state it is about to
// salvage (validateSalvage); if the fault corrupted the guest-visible words
// themselves the reboot aborts with an error wrapping ErrSalvage and the
// machine is left exactly as the detection found it.
//
// The private state is reconstructed from scratch, exactly as New
// initialises it: hv_data and hv_stack are zeroed, the preserved
// guest-visible words are written back, and the domain table, idle VCPU and
// constant pool are re-initialised over them. Scheduler state, the timer
// heap, shadow page tables, grant/domctl accounting and scratch are lost —
// that is the point of a microreboot.
func (h *Hypervisor) Reinit() error {
	if cap(h.salvageScratch) < len(h.Domains) {
		h.salvageScratch = make([]guestVisible, len(h.Domains))
	}
	saved := h.salvageScratch[:len(h.Domains)]
	for i, d := range h.Domains {
		if err := h.Mem.PeekRange(VCPUAddr(d.VCPU), saved[i].vcpu[:]); err != nil {
			return fmt.Errorf("hv: reinit: saving vcpu %d: %w", d.VCPU, err)
		}
		saved[i].evtchn, _ = h.Mem.Peek(EvtchnAddr(d.ID))
	}
	if err := h.validateSalvage(saved); err != nil {
		return err
	}

	for _, name := range []string{"hv_data", "hv_stack"} {
		r := h.Mem.Region(name)
		if r == nil {
			return fmt.Errorf("hv: reinit: region %q not mapped", name)
		}
		r.Zero()
	}

	for i, d := range h.Domains {
		if err := h.Mem.PokeRange(VCPUAddr(d.VCPU), saved[i].vcpu[:]); err != nil {
			return fmt.Errorf("hv: reinit: restoring vcpu %d: %w", d.VCPU, err)
		}
		if err := h.Mem.Poke(EvtchnAddr(d.ID), saved[i].evtchn); err != nil {
			return fmt.Errorf("hv: reinit: restoring evtchn %d: %w", d.ID, err)
		}
	}

	// Boot-time reconstruction over the preserved words: identity fields in
	// the domain and VCPU structures are hypervisor-owned and re-derived.
	for _, d := range h.Domains {
		if err := h.initDomain(d); err != nil {
			return fmt.Errorf("hv: reinit: domain %d: %w", d.ID, err)
		}
	}
	if err := h.initIdleVCPU(); err != nil {
		return err
	}
	if err := h.initConstPool(); err != nil {
		return err
	}
	// Every logical CPU reboots: register files are hypervisor-private
	// state. Zeroing hv_data above also dropped the per-CPU APIC pending
	// words — in-flight cross-CPU kicks are honestly lost by a microreboot.
	for _, c := range h.CPUs {
		c.Reset()
	}
	return nil
}
