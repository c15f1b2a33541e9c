package sim

import (
	"reflect"
	"testing"

	"xentry/internal/core"
	"xentry/internal/recovery"
	"xentry/internal/workload"
)

func TestGoldenRunCleanForAllBenchmarks(t *testing.T) {
	for _, bench := range workload.Names() {
		for _, mode := range []workload.Mode{workload.PV, workload.HVM} {
			cfg := DefaultConfig(bench, 11)
			cfg.Mode = mode
			acts, err := GoldenRun(cfg, 120)
			if err != nil {
				t.Fatalf("%s/%v: %v", bench, mode, err)
			}
			if len(acts) != 120 {
				t.Fatalf("%s/%v: %d activations", bench, mode, len(acts))
			}
		}
	}
}

func TestRunDeterministicAcrossMachines(t *testing.T) {
	cfg := DefaultConfig("postmark", 5)
	a1, err := GoldenRun(cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := GoldenRun(cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i].Ev != a2[i].Ev {
			t.Fatalf("activation %d events differ: %+v vs %+v", i, a1[i].Ev, a2[i].Ev)
		}
		if a1[i].Outcome.Features != a2[i].Outcome.Features {
			t.Fatalf("activation %d features differ", i)
		}
		if a1[i].Record != a2[i].Record {
			t.Fatalf("activation %d records differ", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a1, err := GoldenRun(DefaultConfig("mcf", 1), 50)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := GoldenRun(DefaultConfig("mcf", 2), 50)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a1 {
		if a1[i].Ev.Reason == a2[i].Ev.Reason {
			same++
		}
	}
	if same == len(a1) {
		t.Error("different seeds produced identical reason streams")
	}
}

func TestClockAdvances(t *testing.T) {
	m, err := NewMachine(DefaultConfig("bzip2", 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Clock <= 0 {
		t.Error("clock did not advance")
	}
	// Guest compute dominates hypervisor time for a CPU benchmark.
	if m.Clock < 10*1000 {
		t.Errorf("clock = %f, implausibly small", m.Clock)
	}
}

func TestDom0GetsManagementTraffic(t *testing.T) {
	acts, err := GoldenRun(DefaultConfig("x264", 9), 400)
	if err != nil {
		t.Fatal(err)
	}
	doms := map[int]int{}
	mgmt := 0
	for _, a := range acts {
		doms[a.Ev.Dom]++
		if a.Ev.Reason.String() == "hc_domctl" || a.Ev.Reason.String() == "hc_sysctl" {
			mgmt++
			if a.Ev.Dom != 0 {
				t.Errorf("management hypercall from dom%d", a.Ev.Dom)
			}
		}
	}
	if doms[0] == 0 || doms[1] == 0 || doms[2] == 0 {
		t.Errorf("domain activity skewed: %v", doms)
	}
}

func TestMeanHandlerCost(t *testing.T) {
	cost, err := MeanHandlerCost(DefaultConfig("postmark", 2), 100)
	if err != nil {
		t.Fatal(err)
	}
	if cost < 20 || cost > 2000 {
		t.Errorf("mean handler cost = %f, implausible", cost)
	}
}

func TestBaselineVsDetectionCycles(t *testing.T) {
	// The same workload stream must cost more cycles under full detection
	// than with Xentry disabled — the Fig. 7 overhead mechanism.
	base := DefaultConfig("postmark", 4)
	base.Detection = core.Options{}
	mBase, err := NewMachine(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mBase.Run(100); err != nil {
		t.Fatal(err)
	}

	full := DefaultConfig("postmark", 4)
	mFull, err := NewMachine(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mFull.Run(100); err != nil {
		t.Fatal(err)
	}
	if mFull.Clock <= mBase.Clock {
		t.Errorf("full detection clock %f <= baseline %f", mFull.Clock, mBase.Clock)
	}
	overhead := (mFull.Clock - mBase.Clock) / mBase.Clock
	if overhead > 0.3 {
		t.Errorf("overhead = %.1f%%, implausibly high", 100*overhead)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	if _, err := NewMachine(DefaultConfig("nonesuch", 1)); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRecoveryReexecutesCleanly(t *testing.T) {
	// With recovery armed, a detected fault is re-executed from the VM-exit
	// snapshot: the activation's final state must match the golden run's,
	// memory word for word. Both arms roll back through the undo epoch
	// hv.Snapshot opens at every step: the paper's Section VI switch and
	// the recovery engine's restore strategy. Each machine is rewound to a
	// checkpoint first, as a campaign worker is, so the rollback runs over
	// pages shared with that checkpoint.
	cfg := DefaultConfig("mcf", 33)
	ref, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := ref.Run(13)
	if err != nil {
		t.Fatal(err)
	}
	goldenMem := ref.HV.Mem.Snapshot()
	rest, err := ref.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	golden = append(golden, rest...)

	for _, arm := range []struct {
		name string
		arm  func(m *Machine)
	}{
		{"section-vi", func(m *Machine) { m.RecoverOnDetection = true }},
		{"engine-restore", func(m *Machine) { m.Recovery = recovery.NewEngine(recovery.StrategyRestore) }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			arm.arm(m)
			if _, err := m.Run(12); err != nil {
				t.Fatal(err)
			}
			cp := m.Checkpoint()
			if _, err := m.Step(); err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreFrom(cp); err != nil {
				t.Fatal(err)
			}
			// Crash activation 12 deliberately: corrupt a live base register.
			flipped := false
			m.HV.CPU.PreStep = func(step, pc uint64) {
				if step == 4 && !flipped {
					flipped = true
					m.HV.CPU.Regs[6] ^= 1 << 45 // rbp: the VCPU pointer, always live
				}
			}
			act, err := m.Step()
			m.HV.CPU.PreStep = nil
			if err != nil {
				t.Fatal(err)
			}
			if !act.Recovered {
				t.Fatalf("no recovery triggered (stop=%v, first=%v)",
					act.Outcome.Result.Stop, act.FirstDetection)
			}
			if m.Recovery != nil && act.Recovery.Strategy != recovery.StrategyRestore {
				t.Errorf("engine strategy = %v, want restore", act.Recovery.Strategy)
			}
			if m.Recoveries != 1 {
				t.Errorf("recoveries = %d", m.Recoveries)
			}
			if act.Record != golden[12].Record {
				t.Errorf("recovered record differs from golden:\n%+v\n%+v",
					act.Record, golden[12].Record)
			}
			if !reflect.DeepEqual(m.HV.Mem.Snapshot(), goldenMem) {
				t.Error("memory after the recovered activation differs from golden")
			}
			// The stream continues cleanly after recovery.
			for i := 13; i < 20; i++ {
				act, err := m.Step()
				if err != nil {
					t.Fatal(err)
				}
				if act.Record != golden[i].Record {
					t.Fatalf("post-recovery activation %d diverged", i)
				}
			}
		})
	}
}
