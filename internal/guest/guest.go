// Package guest models the guest-VM side of the evaluation: what a
// para-virtualized kernel and its application actually *do* with the values
// the hypervisor delivers (event-channel bits, bounced trap numbers,
// emulated cpuid results, time values, hypercall return values, copied
// buffers), and what consequence a corrupted delivery has — the paper's
// long-latency error outcomes: silent data corruption, application crash,
// one-VM failure, or all-VM failure (Section V-E).
//
// The classification is golden-run differential, the paper's methodology:
// a fault-free run records the per-activation guest-visible state, and an
// injected run's records are compared against it.
package guest

import (
	"fmt"

	"xentry/internal/hv"
)

// Consequence is the outcome class of a fault for the guest system
// (paper Fig. 9 categories, plus Benign for masked faults).
type Consequence int

// Consequences ordered by increasing severity.
const (
	// Benign: guest-visible state matched the golden run (masked fault).
	Benign Consequence = iota
	// AppSDC: the application completes but produces different output —
	// silent data corruption, the most harmful class.
	AppSDC
	// AppCrash: the application exits abnormally.
	AppCrash
	// OneVMFailure: the guest kernel hangs or crashes.
	OneVMFailure
	// AllVMFailure: the control domain or the hypervisor itself fails,
	// taking every VM down.
	AllVMFailure
)

// String names the consequence.
func (c Consequence) String() string {
	switch c {
	case Benign:
		return "benign"
	case AppSDC:
		return "app-sdc"
	case AppCrash:
		return "app-crash"
	case OneVMFailure:
		return "one-vm-failure"
	case AllVMFailure:
		return "all-vm-failure"
	}
	return fmt.Sprintf("consequence(%d)", int(c))
}

// DiffKind says which guest-visible value class diverged first.
type DiffKind int

// Value classes.
const (
	DiffNone DiffKind = iota
	DiffTrap
	DiffEvents
	DiffCpuid
	DiffTime
	DiffRetVal
	DiffSavedState
	DiffBuffer
)

// String names the diff kind.
func (d DiffKind) String() string {
	switch d {
	case DiffNone:
		return "none"
	case DiffTrap:
		return "trap"
	case DiffEvents:
		return "events"
	case DiffCpuid:
		return "cpuid"
	case DiffTime:
		return "time"
	case DiffRetVal:
		return "retval"
	case DiffSavedState:
		return "saved-state"
	case DiffBuffer:
		return "buffer"
	}
	return fmt.Sprintf("diff(%d)", int(d))
}

// Record is the guest-visible state delivered by one hypervisor execution.
type Record struct {
	Reason hv.ExitReason
	// RetVal is the hypercall return value (hypercall exits only).
	RetVal uint64
	// TrapNr/TrapErr are the bounced exception, if any.
	TrapNr  uint64
	TrapErr uint64
	// Time is the shared-info system time.
	Time uint64
	// RunstateTime is the guest-visible runstate-area timestamp.
	RunstateTime uint64
	// Events is the shared-info event-channel pending mask.
	Events uint64
	// Cpuid holds the emulated cpuid results (ebx, ecx, edx and the eax
	// slot) for emulation exits.
	Cpuid [4]uint64
	// SavedDigest hashes the VCPU saved-register file.
	SavedDigest uint64
	// BufDigest hashes the guest-buffer region this activation writes.
	BufDigest uint64
}

// fnv folds words into an FNV-1a style digest, one xor/multiply round per
// 64-bit word. Digests are only ever compared for equality against digests
// produced by this same function within one run, so the fold width is a
// free choice; the word-wide round keeps hashing off the capture profile
// (the byte-serial variant was the single hottest function of a campaign).
func fnv(words ...uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range words {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// Guest buffer regions a handler writes, mirrored from the hypervisor
// model's layout.
const (
	bounceFrameOff = 0x8000
	grantDstOff    = 0x6000
	versionDstOff  = 0x2000
)

// Capture reads the guest-visible state after one activation. ev supplies
// the arguments needed to locate activation-specific buffer writes.
func Capture(h *hv.Hypervisor, ev *hv.ExitEvent) (rec Record) {
	CaptureInto(h, ev, &rec)
	return rec
}

// CaptureInto is Capture writing into rec, every field overwritten.
func CaptureInto(h *hv.Hypervisor, ev *hv.ExitEvent, rec *Record) {
	d := h.Domains[ev.Dom]
	// Field by field, not a Record literal: assigning a literal through
	// rec builds it on the stack and copies it in, once per activation.
	rec.Reason = ev.Reason
	rec.TrapNr = h.VCPUWord(d.VCPU, hv.VCPUTrapNr)
	rec.TrapErr = h.VCPUWord(d.VCPU, hv.VCPUTrapErr)
	rec.Time = h.SharedWord(ev.Dom, hv.SISystemTime)
	rec.Events = h.SharedWord(ev.Dom, hv.SIEvtPending)
	rec.RunstateTime = h.VCPUWord(d.VCPU, hv.VCPURunstateTime)
	var saved [16]uint64
	h.SavedRegs(d.VCPU, &saved)
	rec.RetVal = 0
	if ev.Reason.Category() == hv.CatHypercall {
		rec.RetVal = saved[0]
	}
	rec.SavedDigest = fnv(saved[:]...)
	rec.Cpuid = [4]uint64{}
	rec.BufDigest = 0

	switch ev.Reason {
	case hv.ExGeneralProtection:
		copy(rec.Cpuid[:], saved[:])
	case hv.HCGrantTableOp:
		ref, words := ev.Args[1], ev.Args[2]
		if words > 64 {
			words = 64
		}
		var buf [64]uint64
		bufWords := buf[:words]
		h.ReadGuestWords(ev.Dom, grantDstOff+(ref<<6), bufWords)
		rec.BufDigest = fnv(bufWords...)
	case hv.HCXenVersion:
		rec.BufDigest = fnv(
			h.ReadGuestWord(ev.Dom, versionDstOff),
			h.ReadGuestWord(ev.Dom, versionDstOff+8),
			h.ReadGuestWord(ev.Dom, versionDstOff+16),
			h.ReadGuestWord(ev.Dom, versionDstOff+24),
		)
	default:
		if ev.Reason.Category() == hv.CatException {
			rec.BufDigest = fnv(
				h.ReadGuestWord(ev.Dom, bounceFrameOff),
				h.ReadGuestWord(ev.Dom, bounceFrameOff+8),
			)
		}
	}
}

// MaxTrapVector is the highest trap number a guest kernel has a handler
// for; a bounced vector beyond it crashes the kernel.
const MaxTrapVector = 19

// TimeJitterTolerance is the largest delivered-time error (cycles) a guest
// absorbs without observable effect.
const TimeJitterTolerance = 1 << 16

// timeDelta is |a-b| in uint64 space.
func timeDelta(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// ClassifyRecord compares one activation's delivered state against the
// golden run and returns the consequence for the guest plus the value
// class that diverged. privileged marks Dom0, whose kernel failures take
// the whole system down. The records are only read.
func ClassifyRecord(golden, got *Record, privileged bool) (Consequence, DiffKind) {
	escalate := func(c Consequence) Consequence {
		if privileged && (c == OneVMFailure || c == AppCrash) {
			return AllVMFailure
		}
		return c
	}

	// Trap delivery: the kernel dispatches its trap table on this value.
	if got.TrapNr != golden.TrapNr || got.TrapErr != golden.TrapErr {
		if got.TrapNr > MaxTrapVector {
			return escalate(OneVMFailure), DiffTrap
		}
		// A wrong-but-valid vector runs the wrong guest handler.
		return escalate(OneVMFailure), DiffTrap
	}

	// Event channels: a lost event blocks the guest forever; a spurious
	// one is tolerated by the kernel's demux loop.
	if missing := golden.Events &^ got.Events; missing != 0 {
		return escalate(OneVMFailure), DiffEvents
	}

	// cpuid: the kernel keys feature paths off the family/model fields; a
	// corrupted feature word picks an unsupported code path (the paper's
	// Path-2 example); other bit differences flow into application state.
	if got.Cpuid != golden.Cpuid {
		const familyMask = 0xF00
		if (got.Cpuid[0]^golden.Cpuid[0])&familyMask != 0 ||
			got.Cpuid[3] != golden.Cpuid[3] { // edx feature flags
			return escalate(AppCrash), DiffCpuid
		}
		return AppSDC, DiffCpuid
	}

	// Hypercall return values: memory-management failures kill the
	// allocating process; others are consumed as data.
	if got.RetVal != golden.RetVal {
		switch golden.Reason {
		case hv.HCMemoryOp, hv.HCMMUUpdate, hv.HCIret, hv.HCUpdateVAMapping:
			return escalate(AppCrash), DiffRetVal
		}
		return AppSDC, DiffRetVal
	}

	// Saved-register state: for iret this is the frame the guest resumes
	// through — a corrupt rip/rsp faults immediately.
	if got.SavedDigest != golden.SavedDigest {
		if golden.Reason == hv.HCIret {
			return escalate(AppCrash), DiffSavedState
		}
		return AppSDC, DiffSavedState
	}

	// Time values: a large timestamp error silently corrupts application
	// output. Jitter below the scheduling granularity is unobservable —
	// real kernels absorb small TSC skew — so only substantial deltas
	// count as corruption.
	if delta := timeDelta(got.Time, golden.Time); delta > TimeJitterTolerance {
		return AppSDC, DiffTime
	}
	if delta := timeDelta(got.RunstateTime, golden.RunstateTime); delta > TimeJitterTolerance {
		return AppSDC, DiffTime
	}

	// Copied buffers: silent data corruption.
	if got.BufDigest != golden.BufDigest {
		return AppSDC, DiffBuffer
	}

	// Extra events only (spurious wakeup) or no difference at all.
	return Benign, DiffNone
}

// CompareStreams classifies a whole injected run against its golden run:
// the most severe per-activation consequence wins, and the index of the
// first divergence is reported (-1 when none).
func CompareStreams(golden, got []Record, privileged bool) (Consequence, DiffKind, int) {
	n := len(golden)
	if len(got) < n {
		n = len(got)
	}
	worst := Benign
	worstKind := DiffNone
	first := -1
	for i := 0; i < n; i++ {
		c, k := ClassifyRecord(&golden[i], &got[i], privileged)
		if c != Benign && first < 0 {
			first = i
		}
		if c > worst {
			worst = c
			worstKind = k
		}
	}
	// A truncated run (hypervisor died mid-stream) is an all-VM failure.
	if len(got) < len(golden) {
		return AllVMFailure, worstKind, first
	}
	return worst, worstKind, first
}
