package inject

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"xentry/internal/core"
	"xentry/internal/ml"
	"xentry/internal/sim"
	"xentry/internal/workload"
)

// DatasetConfig controls training/testing data collection (paper §III-B:
// ~23,400 injections and fault-free runs produced 12,024 training samples;
// a further ~17,700 produced 6,596 testing samples).
type DatasetConfig struct {
	// Benchmarks contributing samples (defaults to all six).
	Benchmarks []string
	// Mode is the virtualization mode.
	Mode workload.Mode
	// FaultFreeRuns is the number of differently seeded fault-free runs
	// per benchmark; every activation contributes a correct sample.
	FaultFreeRuns int
	// Activations is the length of each run.
	Activations int
	// InjectionsPerBenchmark is the number of fault-injection runs per
	// benchmark; runs whose signature diverges contribute an incorrect
	// sample.
	InjectionsPerBenchmark int
	// Seed drives everything.
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// SwitchDispatch disables the direct-threaded translator; dataset
	// bytes are bit-identical either way (TestEquivalenceMatrix proves it).
	SwitchDispatch bool
	// DisablePrune turns off dead-value pre-pruning, so every injection
	// run executes its injected activation; dataset bytes are
	// bit-identical either way (TestEquivalenceMatrix proves it). Dataset
	// runs never execute past the injected activation, pruned or not: the
	// sample is its VM-entry signature.
	DisablePrune bool
}

// DefaultDatasetConfig sizes collection for a quick but representative
// dataset.
func DefaultDatasetConfig(seed int64) DatasetConfig {
	return DatasetConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		FaultFreeRuns:          4,
		Activations:            160,
		InjectionsPerBenchmark: 400,
		Seed:                   seed,
	}
}

// CollectDataset gathers a labelled dataset: fault-free activations are
// correct samples; injection runs whose injected activation completed VM
// entry with a diverged counter signature are incorrect samples. Pure data
// corruptions with golden-identical signatures are excluded — they are not
// incorrect *control flow*, and the transition detector by construction
// cannot see them (they form Table II's undetected classes instead).
//
// Per benchmark, samples come in a fixed order: fault-free run 0, runs
// 1…FaultFreeRuns−1, then the injections in plan order. Run 0 shares the
// injection runner's configuration, so its samples are the runner's golden
// run rather than a second simulation of it.
func CollectDataset(cfg DatasetConfig) (ml.Dataset, error) {
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = workload.Names()
	}
	if cfg.Activations == 0 {
		cfg.Activations = 160
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var dataset ml.Dataset

	for bi := range cfg.Benchmarks {
		runner, plans, err := cfg.prepare(bi)
		if err != nil {
			return nil, err
		}
		// The checkpoint pool, sized by the plans, builds on its own
		// goroutine while this one runs the extra fault-free runs, instead
		// of after them on the first claim-loop worker while the others
		// wait.
		pool := make(chan error, 1)
		go func() { pool <- runner.ensurePool(plans) }()
		// Correct samples from fault-free runs.
		for run := 0; run < cfg.FaultFreeRuns; run++ {
			acts := runner.Golden
			if run > 0 {
				if acts, err = sim.GoldenRun(cfg.simConfig(bi, run), cfg.Activations); err != nil {
					<-pool
					return nil, fmt.Errorf("inject: dataset golden run: %w", err)
				}
			}
			for _, a := range acts {
				if a.Outcome.HasFeatures {
					dataset = append(dataset, ml.Sample{Features: a.Outcome.Features, Correct: true})
				}
			}
		}
		if err := <-pool; err != nil {
			return nil, fmt.Errorf("inject: dataset injection: %w", err)
		}

		// Incorrect samples from injections. RunCampaign's claim loop:
		// per-worker reusable machines, plans claimed in activation order.
		outcomes := make([]Outcome, len(plans))
		err = claimPlans(context.Background(), workers, runner, plans, ActivationOrder(plans),
			func(i int, o Outcome) error {
				outcomes[i] = o
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("inject: dataset injection: %w", err)
		}
		for _, o := range outcomes {
			if o.HasFeatures && o.FeaturesDiffer {
				dataset = append(dataset, ml.Sample{Features: o.Features, Correct: false})
			}
		}
	}
	return dataset, nil
}

// simConfig is the machine of benchmark bi's fault-free run `run`; run 0
// is also the injection runner's machine.
func (cfg DatasetConfig) simConfig(bi, run int) sim.Config {
	return sim.Config{
		Benchmark:      cfg.Benchmarks[bi],
		Mode:           cfg.Mode,
		Domains:        3,
		Seed:           cfg.Seed + int64(bi)*1543 + int64(run)*389,
		Detection:      core.FullDetection(),
		SwitchDispatch: cfg.SwitchDispatch,
	}
}

// prepare builds benchmark bi's injection runner and draws its plans. No
// model is installed: this is the data the model will be trained on. The
// runner stops each run at the injected activation's VM entry, where the
// sample's signature is final.
func (cfg DatasetConfig) prepare(bi int) (*Runner, []Plan, error) {
	runner, err := NewRunner(cfg.simConfig(bi, 0), cfg.Activations, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("inject: dataset runner: %w", err)
	}
	runner.DisablePrune = cfg.DisablePrune
	runner.featuresOnly = true
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(bi+3)*6151))
	plans := make([]Plan, cfg.InjectionsPerBenchmark)
	for i := range plans {
		plans[i] = runner.RandomPlan(rng)
	}
	return runner, plans, nil
}
