package cpu

import (
	"sync"
	"testing"

	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/perf"
)

// hotProgram is the interpreter's worst case in miniature: a loop that
// never exits, mixing arithmetic, a store, a load, and a taken branch —
// the instruction mix of a hypervisor handler body. Run always stops on
// budget exhaustion.
func hotProgram() *isa.Program {
	return isa.NewBuilder("hot").
		MovImm(isa.RBX, 0x20000).
		MovImm(isa.RAX, 1).
		Label("loop").
		AddImm(isa.RAX, 3).
		Store(isa.RAX, isa.RBX, 0).
		Load(isa.RCX, isa.RBX, 8).
		Add(isa.RAX, isa.RCX).
		Jmp("loop").
		MustBuild()
}

// hotCPU links hotProgram and returns a CPU parked at its entry.
func hotCPU(tb testing.TB) *CPU {
	tb.Helper()
	seg, symtab, _, err := NewLoader(0x4000).Add(hotProgram()).Link()
	if err != nil {
		tb.Fatal(err)
	}
	m := mem.New()
	m.MustMap("data", 0x20000, 0x1000, mem.PermRW)
	c := New(m, seg, perf.New())
	c.Regs[isa.RIP] = symtab["hot"]
	return c
}

// TestRunHotPathAllocFree pins the tentpole property: the fault-free run
// loop performs zero heap allocations per Run call.
func TestRunHotPathAllocFree(t *testing.T) {
	c := hotCPU(t)
	c.Run(512) // warm the D-TLB before measuring
	if n := testing.AllocsPerRun(50, func() { c.Run(2048) }); n != 0 {
		t.Fatalf("fault-free Run allocates %.1f times per call, want 0", n)
	}
}

// TestRunFastSlowRegisterEquivalence spot-checks the untraced run loop
// against the slowest one instruction-for-instruction on the hot mix: the
// traced loop under a hook that never disarms and drops the D-TLB before
// every instruction, so every access takes the region search.
// FuzzThreadedVsSwitch holds the same pair on random programs.
func TestRunFastSlowRegisterEquivalence(t *testing.T) {
	fast, slow := hotCPU(t), hotCPU(t)
	slow.PreStep = func(step, pc uint64) { slow.Mem.InvalidateTLB() }
	for _, budget := range []uint64{1, 2, 3, 7, 100, 4096} {
		rf, rs := fast.Run(budget), slow.Run(budget)
		if rf != rs {
			t.Fatalf("budget %d: fast result %+v != slow result %+v", budget, rf, rs)
		}
		if fast.Regs != slow.Regs {
			t.Fatalf("budget %d: register files diverge\nfast %v\nslow %v", budget, fast.Regs, slow.Regs)
		}
		if fast.TSC != slow.TSC {
			t.Fatalf("budget %d: tsc diverges", budget)
		}
	}
}

// TestSegmentSharedAcrossCPUs runs many CPUs off one linked Segment
// concurrently — the campaign-worker sharing introduced with the link
// cache. Under -race this proves the fetch fast path is read-only.
func TestSegmentSharedAcrossCPUs(t *testing.T) {
	seg, symtab, _, err := NewLoader(0x4000).Add(hotProgram()).Link()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := mem.New()
			m.MustMap("data", 0x20000, 0x1000, mem.PermRW)
			c := New(m, seg, perf.New())
			c.Regs[isa.RIP] = symtab["hot"]
			if res := c.Run(10000); res.Reason != StopBudget {
				t.Errorf("goroutine %d: stop = %v", g, res.Reason)
			}
			results[g] = c.Regs[isa.RAX]
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d computed %#x, goroutine 0 computed %#x", g, results[g], results[0])
		}
	}
}

// BenchmarkCPURunHot measures the interpreter's per-instruction cost on
// the handler-shaped loop under both untraced dispatchers: fast (direct-
// threaded translation) and switch (the semantics-table loop with
// threading disabled, the translator's oracle). The fast path must not
// allocate.
func BenchmarkCPURunHot(b *testing.B) {
	const budget = 4096
	for _, bc := range []struct {
		name       string
		noThreaded bool
	}{{"fast", false}, {"switch", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c := hotCPU(b)
			c.DisableThreaded = bc.noThreaded
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := c.Run(budget); res.Reason != StopBudget {
					b.Fatalf("stop = %v", res.Reason)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*budget), "ns/instr")
		})
	}
}
