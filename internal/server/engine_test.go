package server

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"xentry/internal/inject"
	"xentry/internal/store"
)

func testCampaignConfig() inject.CampaignConfig {
	cfg := inject.DefaultCampaign(40, 29)
	cfg.Benchmarks = []string{"canneal"}
	cfg.Activations = 48
	cfg.Workers = 2
	return cfg
}

func testStore(t *testing.T, cfg inject.CampaignConfig, id string) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Meta{
		CampaignID:  id,
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestEngineResumeAfterInterrupt: an in-process engine run cancelled after
// N outcome events resumes from the WAL (fresh store, fresh engine) and
// finishes with aggregates bit-identical to an uninterrupted run.
func TestEngineResumeAfterInterrupt(t *testing.T) {
	cfg := testCampaignConfig()
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	meta := store.Meta{
		CampaignID:  "c-interrupt",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	s1, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var outcomes atomic.Int64
	e1 := &Engine{
		Store: s1,
		OnEvent: func(ev Event) {
			if ev.Type == EventOutcome && outcomes.Add(1) == 12 {
				cancel()
			}
		},
	}
	if _, err := e1.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	s1.Close()

	s2, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	stored := s2.TotalCount()
	if stored < 12 || stored >= cfg.InjectionsPerBenchmark {
		t.Fatalf("stored %d outcomes before resume, want a partial campaign", stored)
	}
	e2 := &Engine{Store: s2}
	got, err := e2.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Complete() {
		t.Error("store incomplete after resumed engine run")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed aggregates differ from uninterrupted run:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
}

// TestEngineMultiBenchmarkMatchesRunCampaign: an in-process campaign over
// several benchmarks (including the per-benchmark seed schedule) folds
// back from the store bit-identically, whatever the worker count.
func TestEngineMultiBenchmarkMatchesRunCampaign(t *testing.T) {
	cfg := inject.DefaultCampaign(24, 31)
	cfg.Benchmarks = []string{"mcf", "postmark"}
	cfg.Activations = 40
	cfg.Workers = 2
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	e := &Engine{Store: testStore(t, cfg, "c-multi")}
	got, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-benchmark sharded aggregates differ:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
}

// TestEngineResumePrunedCampaignMidShard is the pruning interruption
// acceptance test: a campaign whose runs are dead-pruned and
// convergence-early-exited is cancelled mid-benchmark, resumed from the
// WAL by a fresh engine, and must end bit-identical to an uninterrupted
// run —
// including the Pruned provenance counts, which therefore have to survive
// the WAL record round-trip, the replay and the merge.
func TestEngineResumePrunedCampaignMidShard(t *testing.T) {
	cfg := testCampaignConfig()
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The differential is vacuous unless the campaign actually prunes.
	if p := want.Total.Prune; p.Dead == 0 || p.Converged == 0 {
		t.Fatalf("campaign too small to exercise both prune mechanisms: %+v", p)
	}

	dir := t.TempDir()
	meta := store.Meta{
		CampaignID:  "c-prune-interrupt",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	s1, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var outcomes atomic.Int64
	e1 := &Engine{
		Store: s1,
		OnEvent: func(ev Event) {
			if ev.Type == EventOutcome && outcomes.Add(1) == 10 {
				cancel()
			}
		},
	}
	if _, err := e1.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	s1.Close()

	s2, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.TotalCount(); n < 10 || n >= cfg.InjectionsPerBenchmark {
		t.Fatalf("stored %d outcomes before resume, want a partial campaign", n)
	}
	e2 := &Engine{Store: s2}
	got, err := e2.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed pruned campaign differs from uninterrupted run:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
	if got.Total.Prune != want.Total.Prune {
		t.Errorf("prune provenance lost across WAL resume: got %+v want %+v",
			got.Total.Prune, want.Total.Prune)
	}
}
