package trace

import (
	"strings"
	"testing"

	"xentry/internal/cpu"
	"xentry/internal/isa"
	"xentry/internal/sim"
)

func TestCaptureGoldenDeterministic(t *testing.T) {
	cfg := sim.DefaultConfig("mcf", 3)
	t1, stop1, err := CaptureActivation(cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, stop2, err := CaptureActivation(cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop1 != cpu.StopVMEntry || stop2 != cpu.StopVMEntry {
		t.Fatalf("stops = %v, %v", stop1, stop2)
	}
	if len(t1) == 0 || len(t1) != len(t2) {
		t.Fatalf("trace lengths %d vs %d", len(t1), len(t2))
	}
	if Diff(t1, t2) != -1 {
		t.Fatalf("golden traces diverge at %d", Diff(t1, t2))
	}
}

func TestInjectedTraceDiverges(t *testing.T) {
	cfg := sim.DefaultConfig("postmark", 9)
	golden, _, err := CaptureActivation(cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A flipped RIP bit forces immediate control-flow divergence.
	injected, stop, err := CaptureActivation(cfg, 8, &Flip{Step: 3, Reg: isa.RIP, Bit: 7})
	if err != nil {
		t.Fatal(err)
	}
	idx := Diff(golden, injected)
	if idx < 0 {
		t.Fatalf("no divergence found (stop=%v)", stop)
	}
	if idx > 4 {
		t.Errorf("divergence at %d, expected near the injection step", idx)
	}
}

func TestDiffPrefix(t *testing.T) {
	a := []Entry{{PC: 1}, {PC: 2}, {PC: 3}}
	if got := Diff(a, a[:2]); got != -1 {
		t.Errorf("prefix diff = %d, want -1", got)
	}
	b := []Entry{{PC: 1}, {PC: 9}, {PC: 3}}
	if got := Diff(a, b); got != 1 {
		t.Errorf("diff = %d, want 1", got)
	}
}

func TestRenderWindow(t *testing.T) {
	entries := []Entry{
		{Step: 0, PC: 0x100, Instr: isa.Instr{Op: isa.OpNop}},
		{Step: 1, PC: 0x104, Instr: isa.Instr{Op: isa.OpRet}},
		{Step: 2, PC: 0x108, Instr: isa.Instr{Op: isa.OpVMEntry}},
	}
	out := Render(entries, 1, 1, func(pc uint64) string {
		if pc == 0x104 {
			return "helper"
		}
		return ""
	})
	if !strings.Contains(out, "→") || !strings.Contains(out, "<helper>") ||
		!strings.Contains(out, "ret") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 3 {
		t.Errorf("window lines = %d, want 3", lines)
	}
}

func TestTracerRingBound(t *testing.T) {
	cfg := sim.DefaultConfig("bzip2", 1)
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(10)
	detach := tr.Attach(m.HV.CPU, m.HV.Seg)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	detach()
	if len(tr.Entries) > 10 {
		t.Errorf("ring overflowed: %d entries", len(tr.Entries))
	}
	if len(tr.Entries) == 0 {
		t.Error("nothing traced")
	}
	// Entries must be the *last* 10 steps.
	last := tr.Entries[len(tr.Entries)-1]
	if last.Instr.Op != isa.OpVMEntry && last.Instr.Op != isa.OpRet {
		// The final instruction of any clean execution is the VM entry
		// (the ring may end right at it).
		t.Logf("last traced op = %v", last.Instr.Op)
	}
	tr.Reset()
	if len(tr.Entries) != 0 {
		t.Error("reset did not clear")
	}
}

func TestAttachChainsExistingHook(t *testing.T) {
	cfg := sim.DefaultConfig("mcf", 2)
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := m.HV.CPU
	calls := 0
	c.PreStep = func(step, pc uint64) { calls++ }
	tr := New(0)
	detach := tr.Attach(c, m.HV.Seg)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	detach()
	if calls == 0 {
		t.Error("chained hook not called")
	}
	if len(tr.Entries) == 0 {
		t.Error("tracer recorded nothing")
	}
	if c.PreStep == nil {
		t.Error("detach removed the original hook")
	}
}

// TestCaptureActivationSMP: on a 4-vCPU machine the scheduler runs
// activations on every CPU. Each must still be traced, and a RIP flip
// must land on the CPU that executes it.
func TestCaptureActivationSMP(t *testing.T) {
	cfg := sim.DefaultConfig("postmark", 5)
	cfg.VCPUs = 4
	for a := 0; a < 8; a++ {
		golden, _, err := CaptureActivation(cfg, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(golden) == 0 {
			t.Errorf("activation %d: traced 0 entries", a)
			continue
		}
		injected, _, err := CaptureActivation(cfg, a, &Flip{Step: 3, Reg: isa.RIP, Bit: 7})
		if err != nil {
			t.Fatal(err)
		}
		if idx := Diff(golden, injected); len(golden) > 4 && (idx < 0 || idx > 4) {
			t.Errorf("activation %d: injected trace diverges at %d, want near step 3", a, idx)
		}
	}
}
