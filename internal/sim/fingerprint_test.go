package sim

import (
	"reflect"
	"testing"

	"xentry/internal/hv"
	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/perf"
)

// archState is the full architectural state the fingerprint claims to
// summarize: the register file, the TSC, and every mapped word of memory.
// The tests below use it as the reflect.DeepEqual oracle.
type archState struct {
	Regs [isa.NumReg]uint64
	TSC  uint64
	Mem  map[string][]uint64
}

func captureArch(m *Machine) archState {
	c := m.HV.CPU
	return archState{Regs: c.Regs, TSC: c.TSC, Mem: m.HV.Mem.Snapshot()}
}

func testMachineAt(t testing.TB, steps int) *Machine {
	t.Helper()
	m, err := NewMachine(DefaultConfig("postmark", 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestFingerprintEqualStatesEqual: two independently constructed machines
// driven identically have equal fingerprints, and the DeepEqual oracle
// agrees the full architectural state is equal — the positive half of the
// soundness property.
func TestFingerprintEqualStatesEqual(t *testing.T) {
	for _, steps := range []int{0, 1, 7, 23} {
		a := testMachineAt(t, steps)
		b := testMachineAt(t, steps)
		fa, fb := a.FingerprintFrom(nil), b.FingerprintFrom(nil)
		if fa != fb {
			t.Fatalf("steps=%d: identical machines fingerprint differently: %+v vs %+v",
				steps, fa, fb)
		}
		if !reflect.DeepEqual(captureArch(a), captureArch(b)) {
			t.Fatalf("steps=%d: equal fingerprints but unequal architectural state", steps)
		}
	}
}

// FuzzFingerprintSoundness flips a single bit somewhere in the machine
// state — a register, the TSC, any mapped memory word (which includes
// the APIC mailbox and page-table words in hv_data), a D-TLB entry tag,
// or a PMU counter — and asserts the fingerprint changes, then reverts
// the flip and asserts the fingerprint returns to its baseline. The
// target%7 slots are fixed so the pinned corpus keeps its meaning; slots
// 0 and 2 both draw registers.
// Single-bit sensitivity is what lets the injection engine treat
// fingerprint equality as state equality: every hash stage (word-wise
// FNV-1a, splitmix finalizer) is an invertible function of the changed
// word given the rest, so a one-word difference can never cancel.
func FuzzFingerprintSoundness(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0), uint8(0))
	f.Add(uint8(3), uint8(1), uint64(12345), uint8(63))
	f.Add(uint8(5), uint8(2), uint64(999), uint8(17))
	f.Add(uint8(1), uint8(3), uint64(31337), uint8(40))
	f.Add(uint8(7), uint8(3), uint64(7), uint8(7))
	f.Add(uint8(4), uint8(4), uint64(11), uint8(3))
	f.Add(uint8(2), uint8(5), uint64(0), uint8(29))
	f.Add(uint8(6), uint8(6), uint64(2), uint8(51))
	f.Fuzz(func(t *testing.T, steps, target uint8, sel uint64, bit uint8) {
		m := testMachineAt(t, int(steps%8))
		c := m.HV.CPU
		base := m.FingerprintFrom(nil)
		baseState := captureArch(m)
		mask := uint64(1) << (bit % 64)

		var revert func()
		switch target % 7 {
		case 0, 2: // register file
			reg := isa.Reg(sel % uint64(isa.NumReg))
			c.Regs[reg] ^= mask
			revert = func() { c.Regs[reg] ^= mask }
		case 1: // time-stamp counter
			c.TSC ^= mask
			revert = func() { c.TSC ^= mask }
		case 3: // any mapped memory word
			regions := m.HV.Mem.Regions()
			r := regions[sel%uint64(len(regions))]
			addr := r.Start + (sel/uint64(len(regions)))%(r.Size/8)*8
			v, err := m.HV.Mem.Peek(addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.HV.Mem.Poke(addr, v^mask); err != nil {
				t.Fatal(err)
			}
			revert = func() {
				if err := m.HV.Mem.Poke(addr, v); err != nil {
					t.Fatal(err)
				}
			}
		case 4: // a warm D-TLB entry tag
			slot := -1
			for i := 0; i < mem.TLBSlots; i++ {
				s := (int(sel) + i) % mem.TLBSlots
				if m.HV.Mem.FlipTLBTag(s, bit%64) {
					slot = s
					break
				}
			}
			if slot < 0 {
				t.Skip("no armed D-TLB entry to poison")
			}
			revert = func() { m.HV.Mem.FlipTLBTag(slot, bit%64) }
		case 5: // an APIC pending-IRQ mailbox word (hv_data, so Mem covers it)
			addr := hv.APICAddr(0)
			v, err := m.HV.Mem.Peek(addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.HV.Mem.Poke(addr, v^mask); err != nil {
				t.Fatal(err)
			}
			revert = func() {
				if err := m.HV.Mem.Poke(addr, v); err != nil {
					t.Fatal(err)
				}
			}
		default: // a PMU event counter
			e := perf.Event(sel % uint64(perf.NumEvents))
			c.PMU.Flip(e, bit%64)
			revert = func() { c.PMU.Flip(e, bit%64) }
		}

		if got := m.FingerprintFrom(nil); got == base {
			t.Fatalf("single-bit flip (target %d, sel %d, bit %d) left fingerprint unchanged: %+v",
				target%7, sel, bit%64, got)
		}
		revert()
		if got := m.FingerprintFrom(nil); got != base {
			t.Fatalf("reverted flip did not restore fingerprint: %+v vs %+v", got, base)
		}
		if !reflect.DeepEqual(captureArch(m), baseState) {
			t.Fatal("reverted flip did not restore architectural state")
		}
	})
}

// TestFingerprintIncrementalMatchesFull: folding against a checkpoint base
// (the worker's incremental path) must equal the from-scratch fold for any
// amount of divergence from the base.
func TestFingerprintIncrementalMatchesFull(t *testing.T) {
	m := testMachineAt(t, 4)
	cp := m.Checkpoint()
	base := cp.MemImage()
	for i := 0; i < 6; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		inc := m.HV.Mem.FoldFrom(base)
		full := m.HV.Mem.FoldFrom(nil)
		if inc != full {
			t.Fatalf("step %d: incremental fold %x != full fold %x", i, inc, full)
		}
	}
}
