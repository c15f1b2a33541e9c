package sim

import (
	"reflect"
	"testing"

	"xentry/internal/workload"
)

// TestDrawTableReplaysSampledStream: a machine replaying the golden run's
// draw table produces activations DeepEqual to a machine that samples
// every draw, from reset and restored from checkpoints spread over the
// run, at 1 and 4 vCPUs, and ends with the same rng state.
func TestDrawTableReplaysSampledStream(t *testing.T) {
	const n = 160
	for _, vcpus := range []int{1, 4} {
		cfg := DefaultConfig("postmark", 11)
		cfg.VCPUs = vcpus
		golden, draws, err := RecordGoldenRun(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(draws.rng) != n+1 || len(draws.seed) != n {
			t.Fatalf("vcpus=%d: table holds %d states and %d seeds, want %d and %d",
				vcpus, len(draws.rng), len(draws.seed), n+1, n)
		}
		plain, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Activation, n)
		var cps []*Checkpoint
		for i := range want {
			if i%37 == 0 {
				cps = append(cps, plain.Checkpoint())
			}
			if err := plain.StepInto(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(golden, want) {
			t.Fatalf("vcpus=%d: recording the table changed the golden run", vcpus)
		}
		for _, cp := range cps {
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.UseDraws(draws)
			if err := m.RestoreFrom(cp); err != nil {
				t.Fatal(err)
			}
			var act Activation
			for i := cp.Step; i < n; i++ {
				if err := m.StepInto(&act); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(act, want[i]) {
					t.Fatalf("vcpus=%d, restored at %d: activation %d differs from the sampled one",
						vcpus, cp.Step, i)
				}
			}
			if m.rng.State() != plain.rng.State() {
				t.Fatalf("vcpus=%d, restored at %d: rng state %#x after the run, want %#x",
					vcpus, cp.Step, m.rng.State(), plain.rng.State())
			}
		}
	}
}

// TestDrawTableKeyedOnRNGState: the table is consulted only where the
// machine's rng state matches it. A machine on the recorded stream takes
// its draws from the table (a doctored interval shows up in its
// activation); a machine of the same shape but another seed is off the
// table and samples, matching a machine with no table at all.
func TestDrawTableKeyedOnRNGState(t *testing.T) {
	const n = 60
	cfg := DefaultConfig("postmark", 11)
	_, draws, err := RecordGoldenRun(cfg, n)
	if err != nil {
		t.Fatal(err)
	}

	doctored := *draws
	doctored.acts = append([]Activation(nil), draws.acts...)
	doctored.acts[5].GuestCycles = 12345
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.UseDraws(&doctored)
	acts, err := m.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if acts[5].GuestCycles != 12345 {
		t.Fatalf("a machine on the recorded stream sampled activation 5 instead of replaying it")
	}

	other := cfg
	other.Seed = 12
	want, err := GoldenRun(other, n)
	if err != nil {
		t.Fatal(err)
	}
	m, err = NewMachine(other)
	if err != nil {
		t.Fatal(err)
	}
	m.UseDraws(draws)
	if m.draws == nil {
		t.Fatal("UseDraws rejected a table of the same workload, mode and domain count")
	}
	got, err := m.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a machine off the table did not sample its own stream")
	}

	hvm := cfg
	hvm.Mode = workload.HVM
	m, err = NewMachine(hvm)
	if err != nil {
		t.Fatal(err)
	}
	m.UseDraws(draws)
	if m.draws != nil {
		t.Fatal("UseDraws accepted a table recorded under another mode")
	}
}
