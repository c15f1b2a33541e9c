package inject

import (
	"math/rand"
	"testing"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/sim"
	"xentry/internal/workload"
)

// stripPrune zeroes the provenance counters — the one field a pruned
// campaign is allowed to differ from an unpruned one in — so the prune
// differentials and the equivalence matrix can DeepEqual everything else.
func stripPrune(res *CampaignResult) {
	for _, tl := range res.PerBenchmark {
		tl.Prune = PruneStats{}
	}
	if res.Total != nil {
		res.Total.Prune = PruneStats{}
	}
}

// TestPruneDisabledWithPluginDetectors: plugin detectors may carry state
// the architectural fingerprint cannot see, so their presence must force
// every run to its full budget.
func TestPruneDisabledWithPluginDetectors(t *testing.T) {
	cfg := CampaignConfig{
		Benchmarks:             []string{"postmark"},
		Mode:                   workload.PV,
		InjectionsPerBenchmark: 20,
		Activations:            40,
		Seed:                   11,
		Workers:                2,
		Detection:              core.FullDetection(),
		Detectors:              []detect.Factory{newSigSetDetector},
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Total.Prune; p.Full != res.Total.Injections || p.Dead != 0 || p.Converged != 0 {
		t.Fatalf("pruning ran under plugin detectors: %+v", p)
	}
}

// TestCheckpointOffReusesWorkerMachine: with checkpointing disabled the
// worker must still reuse its machine via the reset-state checkpoint
// instead of constructing a fresh simulator per run (the K=off campaign
// path was ~8x the allocations of K>=1 for no simulation benefit).
func TestCheckpointOffReusesWorkerMachine(t *testing.T) {
	r, err := NewRunner(sim.DefaultConfig("postmark", 5), 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckpointEvery = -1
	w := r.NewWorker()
	rng := rand.New(rand.NewSource(5))
	if _, err := w.RunOne(r.RandomPlan(rng)); err != nil {
		t.Fatal(err)
	}
	first := w.m
	if first == nil {
		t.Fatal("worker did not keep its machine with checkpointing off")
	}
	for i := 0; i < 5; i++ {
		if _, err := w.RunOne(r.RandomPlan(rng)); err != nil {
			t.Fatal(err)
		}
		if w.m != first {
			t.Fatalf("run %d rebuilt the worker machine", i)
		}
	}
}
