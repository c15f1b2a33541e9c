package hv

import (
	"errors"
	"testing"

	"xentry/internal/cpu"
)

// TestReinitPreservesGuestVisibleState checks the microreboot contract:
// guest memory regions and vCPU guest-visible words survive, hypervisor
// private state is rebuilt from scratch, and time keeps flowing.
func TestReinitPreservesGuestVisibleState(t *testing.T) {
	h, err := New(3)
	if err != nil {
		t.Fatal(err)
	}

	// Guest-visible state that must survive the reboot.
	if err := h.SetSavedReg(1, 3, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	mustPoke(t, h, VCPUAddr(1)+VCPUPendingEv, 0x8)
	mustPoke(t, h, EvtchnAddr(1), 0x10)
	mustPoke(t, h, VCPUAddr(2)+VCPUTimerDead, 123456)
	mustPoke(t, h, SharedInfoAddr(1)+SISystemTime, 99999)
	mustPoke(t, h, GuestBufAddr(2)+64, 0xabc)

	// Hypervisor-private state that must be lost.
	mustPoke(t, h, ScratchAddr(), 0xdeadbeef)
	mustPoke(t, h, TimerHeapAddr(), 777)
	mustPoke(t, h, SchedAddr(), 42)
	mustPoke(t, h, StackTop()-16, 0x5a5a)
	mustPoke(t, h, DomAddr(1)+DomCtlCounter, 9)
	mustPoke(t, h, DomAddr(1)+DomTotPages, 9999)
	// A corrupted hypervisor-private identity field must heal (the domain
	// table is rebuilt; the shared-info pointer is not salvaged state).
	mustPoke(t, h, DomAddr(1)+DomSharedInfo, 0x1234)

	h.CPU.TSC = 5000
	if err := h.Reinit(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		addr uint64
		want uint64
	}{
		{"saved reg", VCPUAddr(1) + VCPUSavedRegs + 3*8, 0xfeedface},
		{"pending ev", VCPUAddr(1) + VCPUPendingEv, 0x8},
		{"evtchn word", EvtchnAddr(1), 0x10},
		{"timer deadline", VCPUAddr(2) + VCPUTimerDead, 123456},
		{"shared info", SharedInfoAddr(1) + SISystemTime, 99999},
		{"guest buf", GuestBufAddr(2) + 64, 0xabc},
		{"scratch cleared", ScratchAddr(), 0},
		{"timer heap cleared", TimerHeapAddr(), 0},
		{"sched cleared", SchedAddr(), 0},
		{"stack cleared", StackTop() - 16, 0},
		{"domctl counter reset", DomAddr(1) + DomCtlCounter, 0},
		{"tot pages rebuilt", DomAddr(1) + DomTotPages, 4096},
		{"shared-info ptr healed", DomAddr(1) + DomSharedInfo, SharedInfoAddr(1)},
		{"idle vcpu rebuilt", IdleVCPUAddr() + VCPUIsIdle, 1},
		{"const pool rebuilt", ConstPoolAddr(), 4},
	} {
		if got, _ := h.Mem.Peek(c.addr); got != c.want {
			t.Errorf("%s: got %#x want %#x", c.name, got, c.want)
		}
	}
	if h.CPU.TSC != 5000 {
		t.Errorf("TSC rewound by reinit: got %d want 5000", h.CPU.TSC)
	}
}

// TestReinitThenDispatch checks a microrebooted hypervisor still executes
// handlers: the rebuilt const pool and domain table must be coherent enough
// for a full dispatch to reach VM entry.
func TestReinitThenDispatch(t *testing.T) {
	h, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	mustPoke(t, h, ScratchAddr()+8, 0x77) // stale private state
	if err := h.Reinit(); err != nil {
		t.Fatal(err)
	}
	ev := &ExitEvent{Reason: HCXenVersion, Dom: 1}
	res, err := h.Dispatch(ev, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != cpu.StopVMEntry {
		t.Fatalf("dispatch after reinit stopped with %v", res.Stop)
	}
}

// TestReinitSalvageValidation checks the abort path: when the fault
// corrupted the guest-visible state the reboot would salvage, Reinit fails
// with ErrSalvage and leaves the machine exactly as it found it.
func TestReinitSalvageValidation(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, h *Hypervisor)
	}{
		{"vcpu dom id", func(t *testing.T, h *Hypervisor) {
			mustPoke(t, h, VCPUAddr(1)+VCPUDomID, 77)
		}},
		{"vcpu id", func(t *testing.T, h *Hypervisor) {
			mustPoke(t, h, VCPUAddr(2)+VCPUID, 9)
		}},
		{"idle flag set", func(t *testing.T, h *Hypervisor) {
			mustPoke(t, h, VCPUAddr(1)+VCPUIsIdle, 1)
		}},
		{"trap vector out of range", func(t *testing.T, h *Hypervisor) {
			mustPoke(t, h, VCPUAddr(1)+VCPUTrapNr, MaxTraps+1)
		}},
		{"time version torn", func(t *testing.T, h *Hypervisor) {
			mustPoke(t, h, SharedInfoAddr(1)+SITimeVersion, 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := New(3)
			if err != nil {
				t.Fatal(err)
			}
			mustPoke(t, h, ScratchAddr(), 0xdeadbeef)
			tc.corrupt(t, h)
			err = h.Reinit()
			if !errors.Is(err, ErrSalvage) {
				t.Fatalf("want ErrSalvage, got %v", err)
			}
			// Machine untouched: private state survives the aborted reboot.
			if got, _ := h.Mem.Peek(ScratchAddr()); got != 0xdeadbeef {
				t.Errorf("aborted reinit mutated scratch: got %#x", got)
			}
		})
	}

	// A legal trap vector at the bound passes.
	h, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	mustPoke(t, h, VCPUAddr(1)+VCPUTrapNr, MaxTraps)
	if err := h.Reinit(); err != nil {
		t.Fatalf("trap vector at bound rejected: %v", err)
	}
}

func mustPoke(t *testing.T, h *Hypervisor, addr, val uint64) {
	t.Helper()
	if err := h.Mem.Poke(addr, val); err != nil {
		t.Fatalf("poke %#x: %v", addr, err)
	}
}
