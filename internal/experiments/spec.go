package experiments

import (
	"fmt"
	"strings"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/hv"
	"xentry/internal/inject"
	"xentry/internal/recovery"
	"xentry/internal/workload"
)

// Spec is a campaign request: everything needed to reproduce a campaign
// deterministically. It is the JSON body of the campaign server's POST
// /campaigns and the request xentry-campaign builds from its flags, and
// its meaning lives here alone: Validate accepts or rejects it,
// CampaignConfig derives the engine config from it and TrainScale the
// training. One spec is one campaign identity: its plans, workload
// streams and model all come from Seed, wherever the campaign runs.
type Spec struct {
	// ID names the campaign (and its store directory on a server).
	// Optional: the server generates one. Client-chosen IDs make
	// resume-after-restart explicit.
	ID string `json:"id,omitempty"`
	// Benchmarks defaults to all six.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// InjectionsPerBenchmark is in [1, 1,000,000]. A plan costs ~80
	// bytes, so one benchmark at the maximum peaks near 90 MB.
	InjectionsPerBenchmark int `json:"injections_per_benchmark"`
	// Activations is the run length, at most 10,000 (0 = DefaultScale's
	// 160). The golden run, its draw table and the checkpoints cost
	// ~12 KB an activation, so a one-injection campaign peaks near 130 MB
	// at the maximum.
	Activations int `json:"activations,omitempty"`
	// Seed draws the plans, the workload streams and the training
	// collections (0 = DefaultScale's seed).
	Seed int64 `json:"seed,omitempty"`
	// CheckpointEvery is the campaign engine's golden-checkpoint interval
	// K (0 = default, negative disables).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Recover arms the Section VI restore-and-reexecute recovery on every
	// run. Mutually exclusive with Recovery.
	Recover bool `json:"recover,omitempty"`
	// TrainInjections > 0 trains the VM-transition model first
	// (TrainScale); 0 runs without one. At most 1,000,000, where training
	// peaks near 140 MB.
	TrainInjections int `json:"train_injections,omitempty"`
	// Detectors names plugin detector factories (detect.RegisterFactory)
	// to run behind the built-in pipeline on every campaign machine. Their
	// verdicts land in the report, the WAL, and /metrics under their
	// registered technique names.
	Detectors []string `json:"detectors,omitempty"`
	// Prune is the convergence-pruning switch: "" or "on" (the default)
	// prunes, "off" forces every run to its full activation budget (the
	// differential baseline).
	Prune string `json:"prune,omitempty"`
	// Recovery names the recovery-engine strategy applied to detections
	// ("off"/"none"/"" = no engine, "microreboot", "restore", "policy").
	Recovery string `json:"recovery,omitempty"`
	// Execution picks a server's data plane: "" or "pool" runs the
	// campaign in process, inject.ResumeCampaign writing into the store;
	// "fleet" leases shards to remote xentry-worker processes over the
	// binary shard protocol (on a server with a fleet listener). It does
	// not change the campaign.
	Execution string `json:"execution,omitempty"`
	// VCPUs is the number of logical CPUs per simulated machine (0 or 1 =
	// the seed's single-CPU machine).
	VCPUs int `json:"vcpus,omitempty"`
	// Targets names the fault-site target classes plans are drawn from
	// (see inject.TargetNames; empty = "gpr"); "apic" needs vcpus >= 2.
	Targets []string `json:"targets,omitempty"`
}

// The largest sizes a spec may ask for. Each caps one dimension of a
// campaign's memory; the field docs give the peak RSS at each maximum,
// measured with two workers.
const (
	maxInjectionsPerBenchmark = 1_000_000
	maxActivations            = 10_000
	maxTrainInjections        = 1_000_000
)

// withDefaults fills the fields whose zero value means a default.
func (sp Spec) withDefaults() Spec {
	def := DefaultScale()
	if len(sp.Benchmarks) == 0 {
		sp.Benchmarks = workload.Names()
	}
	if sp.Activations == 0 {
		sp.Activations = def.Activations
	}
	if sp.Seed == 0 {
		sp.Seed = def.Seed
	}
	return sp
}

// Validate reports the first field that describes no campaign. A spec it
// accepts derives a config every campaign entry point runs.
func (sp Spec) Validate() error {
	sp = sp.withDefaults()
	if sp.InjectionsPerBenchmark < 1 || sp.InjectionsPerBenchmark > maxInjectionsPerBenchmark {
		return fmt.Errorf("injections_per_benchmark must be in [1,%d], got %d",
			maxInjectionsPerBenchmark, sp.InjectionsPerBenchmark)
	}
	seen := map[string]bool{}
	for _, bench := range sp.Benchmarks {
		if _, err := workload.ByName(bench); err != nil {
			return fmt.Errorf("unknown benchmark %q", bench)
		}
		if seen[bench] {
			return fmt.Errorf("benchmark %q named twice", bench)
		}
		seen[bench] = true
	}
	if sp.Activations < 0 || sp.Activations > maxActivations {
		return fmt.Errorf("activations must be in [0,%d], got %d", maxActivations, sp.Activations)
	}
	if sp.TrainInjections < 0 || sp.TrainInjections > maxTrainInjections {
		return fmt.Errorf("train_injections must be in [0,%d], got %d", maxTrainInjections, sp.TrainInjections)
	}
	for _, name := range sp.Detectors {
		if !detect.HasFactory(name) {
			return fmt.Errorf("unknown detector %q (registered: %s)", name, strings.Join(detect.FactoryNames(), ", "))
		}
	}
	switch sp.Prune {
	case "", "on", "off":
	default:
		return fmt.Errorf("prune must be \"on\" or \"off\", got %q", sp.Prune)
	}
	if engine, err := recovery.EngineFor(sp.Recovery); err != nil {
		return err
	} else if engine != nil && sp.Recover {
		return fmt.Errorf("recover and recovery=%q are mutually exclusive", sp.Recovery)
	}
	switch sp.Execution {
	case "", "pool", "fleet":
	default:
		return fmt.Errorf("execution must be \"pool\" or \"fleet\", got %q", sp.Execution)
	}
	if sp.VCPUs < 0 || sp.VCPUs > hv.MaxVCPUs {
		return fmt.Errorf("vcpus must be in [0,%d], got %d", hv.MaxVCPUs, sp.VCPUs)
	}
	return inject.ValidateTargets(sp.Targets, max(sp.VCPUs, 1))
}

// CampaignConfig validates the spec and derives the engine config it
// describes. The caller installs the model and may set Workers and
// Progress; neither changes the result.
func (sp Spec) CampaignConfig() (inject.CampaignConfig, error) {
	if err := sp.Validate(); err != nil {
		return inject.CampaignConfig{}, err
	}
	sp = sp.withDefaults()
	detectors, err := detect.Factories(sp.Detectors)
	if err != nil {
		return inject.CampaignConfig{}, err
	}
	return inject.CampaignConfig{
		Benchmarks:             sp.Benchmarks,
		Mode:                   workload.PV,
		InjectionsPerBenchmark: sp.InjectionsPerBenchmark,
		Activations:            sp.Activations,
		Seed:                   sp.Seed,
		Detection:              core.FullDetection(),
		Recover:                sp.Recover,
		Recovery:               sp.Recovery,
		CheckpointEvery:        sp.CheckpointEvery,
		Detectors:              detectors,
		DisablePrune:           sp.Prune == "off",
		VCPUs:                  sp.VCPUs,
		Targets:                sp.Targets,
	}, nil
}

// TrainScale is the training the spec describes (Train, through
// DatasetConfigs): DefaultScale's collections at the spec's seed and run
// length, with TrainInjections training injections and half as many
// held-out ones. A spec with no TrainInjections trains nothing; its
// callers check that.
func (sp Spec) TrainScale() Scale {
	sp = sp.withDefaults()
	sc := DefaultScale()
	sc.Seed = sp.Seed
	sc.Activations = sp.Activations
	sc.TrainInjections = sp.TrainInjections
	sc.TestInjections = sp.TrainInjections / 2
	return sc
}
