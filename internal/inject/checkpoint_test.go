package inject

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xentry/internal/sim"
)

// TestPlanStepInvariantHolds pins the Plan.Step invariant: Step is drawn in
// [0, Steps) of the *golden* activation, and because the simulator is
// deterministic, the re-executed activation of the injection run retires
// exactly the same instruction count — whether the prefix was replayed from
// reset or restored from the checkpoint pool. So the flip always lands
// inside the activation.
func TestPlanStepInvariantHolds(t *testing.T) {
	r := testRunner(t, "freqmine", nil)
	for _, every := range []int{16, -1} {
		r2 := testRunner(t, "freqmine", nil)
		r2.CheckpointEvery = every
		w := r2.NewWorker()
		for _, a := range []int{0, 1, 15, 16, 17, 31, 42, r.Activations - 1} {
			m, err := w.MachineAt(a)
			if err != nil {
				t.Fatal(err)
			}
			act, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			golden := r.Golden[a].Outcome.Result.Steps
			if act.Outcome.Result.Steps != golden {
				t.Fatalf("every=%d activation %d: re-executed %d steps, golden %d",
					every, a, act.Outcome.Result.Steps, golden)
			}
			// RandomPlan draws Step over the golden count, so any drawn Step
			// is strictly inside the re-executed activation.
			rng := rand.New(rand.NewSource(int64(a)))
			for i := 0; i < 32; i++ {
				p := r.RandomPlan(rng)
				if p.Step >= r.Golden[p.Activation].Outcome.Result.Steps && p.Step != 0 {
					t.Fatalf("plan %v: step beyond golden activation length", p)
				}
			}
		}
	}
}

// TestCheckpointPoolSharedAcrossWorkers: many workers share one runner's
// read-only pool concurrently (run under -race) and each reproduces the
// reference outcome for its plans.
func TestCheckpointPoolSharedAcrossWorkers(t *testing.T) {
	r := testRunner(t, "postmark", nil)
	rng := rand.New(rand.NewSource(13))
	plans := make([]Plan, 48)
	want := make([]Outcome, len(plans))
	ref := r.NewWorker()
	for i := range plans {
		plans[i] = r.RandomPlan(rng)
		var err error
		if want[i], err = ref.RunOne(plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 6
	got := make([]Outcome, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := r.NewWorker()
			for i := w; i < len(plans); i += workers {
				got[i], errs[i] = worker.RunOne(plans[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("plan %v: concurrent outcome %+v != reference %+v",
				plans[i], got[i], want[i])
		}
	}
}

// TestCampaignProgressCallback: Progress reports every completion with a
// stable total and reaches done == total exactly once at the end.
func TestCampaignProgressCallback(t *testing.T) {
	const perBench = 30
	var mu sync.Mutex
	calls := 0
	maxDone := 0
	cfg := DefaultCampaign(perBench, 3)
	cfg.Benchmarks = []string{"bzip2", "canneal"}
	cfg.Activations = 40
	cfg.Workers = 4
	cfg.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != 2*perBench {
			t.Errorf("total = %d, want %d", total, 2*perBench)
		}
		if done < 1 || done > total {
			t.Errorf("done = %d out of range", done)
		}
		if done > maxDone {
			maxDone = done
		}
	}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if calls != 2*perBench {
		t.Errorf("progress called %d times, want %d", calls, 2*perBench)
	}
	if maxDone != 2*perBench {
		t.Errorf("max done = %d, want %d", maxDone, 2*perBench)
	}
}

// TestWorkerMachineReuse: a worker reuses one machine across runs when the
// pool is active (the perf point of the whole exercise).
func TestWorkerMachineReuse(t *testing.T) {
	r := testRunner(t, "mcf", nil)
	w := r.NewWorker()
	if _, err := w.RunOne(Plan{Activation: 5, Step: 0, Reg: 3, Bit: 1}); err != nil {
		t.Fatal(err)
	}
	first := w.m
	if first == nil {
		t.Fatal("worker did not retain its machine")
	}
	if _, err := w.RunOne(Plan{Activation: 40, Step: 2, Reg: 4, Bit: 9}); err != nil {
		t.Fatal(err)
	}
	if w.m != first {
		t.Error("worker rebuilt its machine instead of restoring a checkpoint")
	}
}

// TestEnsureCheckpointsIdempotent: concurrent EnsureCheckpoints calls build
// the pool exactly once.
func TestEnsureCheckpointsIdempotent(t *testing.T) {
	r := testRunner(t, "x264", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.EnsureCheckpoints(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(r.pool) == 0 {
		t.Fatal("pool not built")
	}
	wantLen := (r.Activations + r.poolK - 1) / r.poolK
	if len(r.pool) != wantLen {
		t.Errorf("pool size %d, want %d", len(r.pool), wantLen)
	}
	// Pool positions: pool[j] sits immediately before activation j*K.
	for j, cp := range r.pool {
		if cp.Step != j*r.poolK {
			t.Errorf("pool[%d].Step = %d, want %d", j, cp.Step, j*r.poolK)
		}
	}
	var _ *sim.Checkpoint = r.pool[0]
}

// TestPoolSizedByPlans: a runner prepared for a plan list, at K=1 and at
// K=7, holds checkpoints exactly at slot 0 and the slots its plans
// restore, while EnsureCheckpoints without plans builds every slot. The
// prepared runner's fingerprints, folded from the latest built slot,
// equal the full pool's. A machine for an activation whose slot was not
// built, restored from the nearest built slot and replayed, matches the
// full pool's, and every plan there returns the full-pool outcome.
func TestPoolSizedByPlans(t *testing.T) {
	for _, every := range []int{1, 7} {
		cfg := DefaultCampaign(6, 29)
		cfg.Benchmarks = []string{"postmark"}
		cfg.Activations = 60
		cfg.CheckpointEvery = every
		br, err := PrepareBenchmark(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := cfg.Normalized().prepare(0)
		if err != nil {
			t.Fatal(err)
		}
		full.CheckpointEvery = every
		if err := full.EnsureCheckpoints(); err != nil {
			t.Fatal(err)
		}
		prepared := br.Runner
		want := map[int]bool{0: true}
		for _, p := range br.Plans {
			want[p.Activation/every] = true
		}
		if len(want) == len(full.pool) {
			t.Fatalf("K=%d: the plans restore every slot; nothing is left unbuilt", every)
		}
		if len(prepared.pool) != len(full.pool) {
			t.Fatalf("K=%d: prepared pool has %d slots, full pool %d", every, len(prepared.pool), len(full.pool))
		}
		for j, cp := range full.pool {
			if cp == nil || cp.Step != j*every {
				t.Fatalf("K=%d: EnsureCheckpoints left slot %d %v", every, j, cp)
			}
			if got := prepared.pool[j] != nil; got != want[j] {
				t.Errorf("K=%d: slot %d built=%v, want %v", every, j, got, want[j])
			}
		}
		if prepared.fps == nil || !reflect.DeepEqual(prepared.fps, full.fps) {
			t.Errorf("K=%d: prepared fingerprints differ from the full pool's", every)
		}

		pw, fw := prepared.NewWorker(), full.NewWorker()
		rng := rand.New(rand.NewSource(int64(every)))
		unbuilt := 0
		for a := 0; a < cfg.Activations; a++ {
			if want[a/every] {
				continue
			}
			unbuilt++
			pm, err := pw.MachineAt(a)
			if err != nil {
				t.Fatal(err)
			}
			fm, err := fw.MachineAt(a)
			if err != nil {
				t.Fatal(err)
			}
			if pm.StepIndex() != a || pm.FingerprintFrom(nil) != fm.FingerprintFrom(nil) {
				t.Fatalf("K=%d activation %d: machine from the nearest built slot differs from the full pool's", every, a)
			}
			for i := 0; i < 4; i++ {
				p := prepared.RandomPlan(rng)
				p.Activation, p.Step = a, p.Step%max(1, full.Golden[a].Outcome.Result.Steps)
				got, err := pw.RunOne(p)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := fw.RunOne(p)
				if err != nil {
					t.Fatal(err)
				}
				if got != ref {
					t.Fatalf("K=%d plan %v: prepared outcome %+v, full pool %+v", every, p, got, ref)
				}
			}
		}
		if unbuilt == 0 {
			t.Fatalf("K=%d: no activation lies in an unbuilt slot", every)
		}
		for _, a := range []int{-1, cfg.Activations} {
			if _, err := pw.MachineAt(a); err == nil {
				t.Errorf("K=%d: MachineAt(%d) outside the run returned a machine", every, a)
			}
		}
	}
}
