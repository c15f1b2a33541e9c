package inject

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"xentry/internal/recovery"
	"xentry/internal/sim"
)

// This file is the shard-able face of the campaign engine: a campaign is a
// deterministic function of its (normalized) config, so any subset of plan
// indices can be executed anywhere — another goroutine, another process,
// another machine — and folded back at the original index without changing
// the aggregates. RunCampaign, the resumable ResumeCampaign (which the
// campaign server also runs for in-process campaigns), and the fleet
// coordinator in internal/server are all thin orchestration layers over
// the primitives here.

// BenchmarkRun is the prepared execution context for one benchmark of a
// campaign: the golden runner (with its shared checkpoint pool) and the
// full deterministic plan list. Index is the benchmark's position in the
// normalized config's Benchmarks slice; it feeds the seed schedule, so the
// same (config, index) pair always reproduces the same plans.
type BenchmarkRun struct {
	Bench  string
	Index  int
	Runner *Runner
	Plans  []Plan
}

// BenchmarkSim returns the deterministic simulator configuration for the
// bi-th benchmark of the campaign. The seed schedule is part of the
// campaign's identity: every shard and every resumed run must derive the
// exact same config or outcomes stop being comparable.
func (cfg CampaignConfig) BenchmarkSim(bi int) sim.Config {
	cfg = cfg.Normalized()
	return sim.Config{
		Benchmark:       cfg.Benchmarks[bi],
		Mode:            cfg.Mode,
		Domains:         3,
		Seed:            cfg.Seed + int64(bi)*7919,
		VCPUs:           cfg.VCPUs,
		Detection:       cfg.Detection,
		Detectors:       cfg.Detectors,
		SlowPath:        cfg.SlowPath,
		SwitchDispatch:  cfg.SwitchDispatch,
		LegacyDetection: cfg.LegacyDetection,
	}
}

// PrepareBenchmark computes the golden run, builds the checkpoint pool, and
// generates the benchmark's full plan list from the campaign seed. It is
// the expensive, deterministic setup step every executor of any shard of
// the benchmark performs identically.
func PrepareBenchmark(cfg CampaignConfig, bi int) (*BenchmarkRun, error) {
	cfg = cfg.Normalized()
	if bi < 0 || bi >= len(cfg.Benchmarks) {
		return nil, fmt.Errorf("inject: benchmark index %d out of range [0,%d)", bi, len(cfg.Benchmarks))
	}
	bench := cfg.Benchmarks[bi]
	if err := ValidateTargets(cfg.Targets, cfg.VCPUs); err != nil {
		return nil, err
	}
	runner, err := NewRunner(cfg.BenchmarkSim(bi), cfg.Activations, cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("inject: golden run for %s: %w", bench, err)
	}
	runner.Recover = cfg.Recover
	runner.CheckpointEvery = cfg.CheckpointEvery
	runner.DisablePrune = cfg.DisablePrune
	// Targets shape both the plan stream and the pruning gate; they must
	// be in place before the checkpoint pool (which records pruning data
	// only when pruning is live) and before the first RandomPlan draw.
	runner.Targets = cfg.Targets
	engine, err := recovery.EngineFor(cfg.Recovery)
	if err != nil {
		return nil, err
	}
	if engine != nil && cfg.Recover {
		return nil, fmt.Errorf("inject: Recover (Section VI study) and Recovery=%q are mutually exclusive", cfg.Recovery)
	}
	runner.Recovery = engine
	if err := runner.EnsureCheckpoints(); err != nil {
		return nil, fmt.Errorf("inject: checkpoint pool for %s: %w", bench, err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(bi+1)*104729))
	plans := make([]Plan, cfg.InjectionsPerBenchmark)
	for i := range plans {
		plans[i] = runner.RandomPlan(rng)
	}
	return &BenchmarkRun{Bench: bench, Index: bi, Runner: runner, Plans: plans}, nil
}

// PreparePlans computes just the benchmark's deterministic plan list: the
// golden run plus seeded plan generation, without building the checkpoint
// pool, training hooks, or recovery arming. Plans depend only on the
// campaign identity (seed schedule, activations, benchmark stream) — the
// golden run ignores the transition model by construction — so a
// coordinator that never executes an injection itself can derive the
// exact plan list its remote workers will execute, at a fraction of
// PrepareBenchmark's cost.
func PreparePlans(cfg CampaignConfig, bi int) ([]Plan, error) {
	cfg = cfg.Normalized()
	if bi < 0 || bi >= len(cfg.Benchmarks) {
		return nil, fmt.Errorf("inject: benchmark index %d out of range [0,%d)", bi, len(cfg.Benchmarks))
	}
	if err := ValidateTargets(cfg.Targets, cfg.VCPUs); err != nil {
		return nil, err
	}
	runner, err := NewRunner(cfg.BenchmarkSim(bi), cfg.Activations, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: golden run for %s: %w", cfg.Benchmarks[bi], err)
	}
	// Plan identity includes the target classes: a coordinator must derive
	// the same plans its workers will execute.
	runner.Targets = cfg.Targets
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(bi+1)*104729))
	plans := make([]Plan, cfg.InjectionsPerBenchmark)
	for i := range plans {
		plans[i] = runner.RandomPlan(rng)
	}
	return plans, nil
}

// ActivationOrder returns the plan indices sorted by activation, equal
// activations in plan order. Executing runs in this order makes
// consecutive restores hit the same or adjacent checkpoints, keeping
// residual replays and COW page traffic minimal; outcomes are still folded
// at their original index, so the order is pure mechanism. It is a
// counting sort over the activation range, which a campaign bounds by its
// activation count, so it is linear and stable by construction.
func ActivationOrder(plans []Plan) []int {
	order := make([]int, len(plans))
	if len(plans) == 0 {
		return order
	}
	lo, hi := plans[0].Activation, plans[0].Activation
	for _, p := range plans[1:] {
		lo, hi = min(lo, p.Activation), max(hi, p.Activation)
	}
	// next[a-lo] is where the next plan of activation a goes.
	next := make([]int, hi-lo+2)
	for _, p := range plans {
		next[p.Activation-lo+1]++
	}
	for a := 1; a < len(next); a++ {
		next[a] += next[a-1]
	}
	for i, p := range plans {
		a := p.Activation - lo
		order[next[a]] = i
		next[a]++
	}
	return order
}

// ResultSink is durable storage for campaign outcomes, keyed by (benchmark,
// plan index). ResumeCampaign skips indices the sink already has, records
// every new outcome, and assembles the result from the sink, so a campaign
// interrupted at any point resumes from exactly where its sink left off.
// internal/store's WAL-backed Store is the canonical implementation.
//
// Record is called concurrently from worker goroutines and must
// deduplicate by (benchmark, index): a requeued fleet shard may re-execute
// runs whose outcomes were already persisted.
type ResultSink interface {
	// Has reports whether an outcome for the plan index is already stored.
	Has(bench string, index int) bool
	// Record persists one outcome. Recording an index twice is allowed and
	// must fold only the first occurrence.
	Record(bench string, index int, o Outcome) error
	// Result assembles the normalized aggregates from everything stored.
	Result() (*CampaignResult, error)
}

// ResumeCampaign executes every plan index the sink does not already hold
// and returns the campaign aggregates. With a nil sink it is exactly
// RunCampaign: run everything, fold in memory. With a sink, outcomes are
// recorded as they complete and the final result comes from the sink, so
// the returned aggregates cover stored-and-skipped runs too and are
// bit-identical to an uninterrupted single-process run of the same config.
// A benchmark the sink already holds in full is skipped without its golden
// run. Workers stop claiming plans once ctx ends or a run or Record fails,
// and that error is returned; whatever the sink recorded stays there for
// the next resume.
func ResumeCampaign(ctx context.Context, cfg CampaignConfig, sink ResultSink) (*CampaignResult, error) {
	cfg = cfg.Normalized()
	total := len(cfg.Benchmarks) * cfg.InjectionsPerBenchmark
	stored := make([]int, len(cfg.Benchmarks))
	var completed atomic.Int64
	if sink != nil {
		for bi, bench := range cfg.Benchmarks {
			for i := 0; i < cfg.InjectionsPerBenchmark; i++ {
				if sink.Has(bench, i) {
					stored[bi]++
				}
			}
			// Already-stored runs count toward progress from the start.
			completed.Add(int64(stored[bi]))
		}
	}
	result := &CampaignResult{
		PerBenchmark: map[string]*Tally{},
		Total:        NewTally(),
	}
	for bi, bench := range cfg.Benchmarks {
		if sink != nil && stored[bi] == cfg.InjectionsPerBenchmark {
			continue
		}
		br, err := PrepareBenchmark(cfg, bi)
		if err != nil {
			return nil, err
		}
		order := ActivationOrder(br.Plans)
		if sink != nil {
			todo := order[:0]
			for _, i := range order {
				if !sink.Has(bench, i) {
					todo = append(todo, i)
				}
			}
			order = todo
		}
		// Without a sink each outcome is folded as it is recorded: record
		// calls never overlap, and Normalize makes the fold order-free.
		tally := NewTally()
		err = claimPlans(ctx, cfg.Workers, br.Runner, br.Plans, order, func(i int, o Outcome) error {
			if sink != nil {
				if err := sink.Record(bench, i, o); err != nil {
					return err
				}
			} else {
				tally.Add(o)
			}
			if done := completed.Add(1); cfg.Progress != nil {
				cfg.Progress(int(done), total)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("inject: %s: %w", bench, err)
		}
		if sink == nil {
			result.PerBenchmark[bench] = tally
			result.Total.Merge(tally)
		}
	}
	if sink != nil {
		return sink.Result()
	}
	result.Normalize()
	return result, nil
}

// claimPlans is the campaign engine's one claim loop, shared by
// ResumeCampaign and CollectDataset. It runs the plans named by order on
// workers goroutines, each with its own reusable Worker restored from the
// runner's shared checkpoint pool, claiming indices in order through an
// atomic counter, and hands every outcome to record on the worker's
// goroutine.
//
// Calls to record never overlap, and none starts after ctx has ended or
// after a run or a record has failed: the worker that sees a failure stops
// the loop before any other record call can begin. So after a failed
// record, record is not called again. Workers then claim no more plans;
// runs already in flight finish and their outcomes are dropped. The first
// failure, or else the context's cause, is returned.
func claimPlans(ctx context.Context, workers int, runner *Runner, plans []Plan, order []int, record func(i int, o Outcome) error) error {
	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	var next atomic.Int64
	// recordMu orders every record call against every stop: a worker checks
	// ctx, records and, on failure, stops the loop all under the lock.
	var recordMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker := runner.NewWorker()
			for ctx.Err() == nil {
				n := next.Add(1) - 1
				if n >= int64(len(order)) {
					return
				}
				i := order[n]
				o, err := worker.RunOne(plans[i])
				recordMu.Lock()
				if err == nil && ctx.Err() == nil {
					err = record(i, o)
				}
				if err != nil {
					stop(fmt.Errorf("plan %d (%v): %w", i, plans[i], err))
				}
				recordMu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}
