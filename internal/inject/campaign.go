package inject

import (
	"context"
	"runtime"
	"sort"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/guest"
	"xentry/internal/ml"
	"xentry/internal/workload"
)

// CampaignConfig describes a full injection campaign (the paper runs
// 30,000 injections across six benchmarks).
type CampaignConfig struct {
	// Benchmarks to inject under (defaults to all six).
	Benchmarks []string
	// Mode is the virtualization mode (the paper's setup is PV).
	Mode workload.Mode
	// InjectionsPerBenchmark is the number of faults per benchmark.
	InjectionsPerBenchmark int
	// Activations is the workload length of each run.
	Activations int
	// Seed drives plan generation and the workload streams.
	Seed int64
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int
	// Detection is the Xentry configuration under test.
	Detection core.Options
	// Model is the trained transition-detection model (may be nil).
	Model *ml.Tree
	// Recover enables live recovery (paper Section VI) on every run.
	Recover bool
	// Recovery names the recovery-engine strategy armed on every run
	// ("" or "off" = engine off; "microreboot", "restore", "policy" — see
	// recovery.EngineFor). Mutually exclusive with Recover.
	Recovery string
	// CheckpointEvery is the golden-checkpoint interval K per runner
	// (0 = DefaultCheckpointEvery, negative disables checkpointing). The
	// interval is pure mechanism: Tally aggregates are bit-identical for
	// any value, only wall-clock changes.
	CheckpointEvery int
	// Progress, when set, is invoked after every completed injection with
	// the cumulative campaign progress (done of total across all
	// benchmarks), e.g. for a live throughput display. It is called
	// concurrently from worker goroutines and must be safe for that.
	Progress func(done, total int)
	// SwitchDispatch disables the direct-threaded translator on every
	// simulated machine, running the fast interpreter through the
	// semantics-table switch instead. Outcomes are bit-identical either
	// way (TestEquivalenceMatrix proves it).
	SwitchDispatch bool
	// Detectors builds plugin detectors on every campaign machine,
	// appended behind the built-in pipeline (see sim.Config.Detectors).
	// Their verdicts tally under their registered techniques with no
	// changes to the aggregation or rendering layers.
	Detectors []detect.Factory
	// DisablePrune forces every injection to execute its full activation
	// budget instead of dead-value pre-pruning and convergence early exit
	// (see Runner.DisablePrune). Like CheckpointEvery it is pure
	// mechanism: aggregates are bit-identical either way apart from the
	// Tally.Prune provenance counters (TestEquivalenceMatrix proves it).
	// Pruning also disables itself whenever Detectors are configured.
	DisablePrune bool
	// VCPUs is the number of logical CPUs per simulated machine (0 or 1 =
	// the seed's single-CPU machine, bit-identical to the pre-SMP engine;
	// up to hv.MaxVCPUs). Multi-vCPU machines interleave domains over
	// the CPUs under a deterministic seeded round-robin schedule and
	// route cross-domain event kicks through per-CPU APIC words.
	VCPUs int
	// Targets are the fault-site target classes plans are drawn from (see
	// TargetNames; empty = "gpr", the legacy register space). Normalized
	// (sorted, deduplicated) as part of the campaign identity. Pruning
	// covers every class: each carries its own dead-flip argument, and the
	// convergence fingerprint is machine-wide (Runner.pruneEnabled).
	Targets []string
}

// DefaultCampaign returns a campaign sized down from the paper's 30,000
// injections to run quickly while keeping per-benchmark statistics stable.
func DefaultCampaign(injectionsPerBenchmark int, seed int64) CampaignConfig {
	return CampaignConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		InjectionsPerBenchmark: injectionsPerBenchmark,
		Activations:            160,
		Seed:                   seed,
		Detection:              core.FullDetection(),
	}
}

// ConsequenceTally counts faults of one consequence class and how many of
// them were detected.
type ConsequenceTally struct {
	Total    int
	Detected int
}

// SiteTally counts injections of one fault-site class: how many were
// drawn, how many manifested, and how many of the manifested were
// detected — the per-site detection-coverage row of the campaign report.
type SiteTally struct {
	Injections int
	Manifested int
	Detected   int
}

// Coverage is detected/manifested for this site class (0 when nothing
// manifested).
func (s *SiteTally) Coverage() float64 {
	if s == nil || s.Manifested == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Manifested)
}

// Tally aggregates injection outcomes.
type Tally struct {
	Injections   int
	NonActivated int
	// Benign: activated but architecturally masked (no visible outcome).
	Benign int
	// Manifested: caused a failure or data corruption.
	Manifested int
	// DetectedBy counts manifested faults per detecting technique.
	DetectedBy map[core.Technique]int
	// Undetected counts manifested faults no technique flagged.
	Undetected int
	// ByConsequence breaks manifested faults down by outcome class.
	ByConsequence map[guest.Consequence]*ConsequenceTally
	// ByCause breaks undetected manifested faults down per Table II.
	ByCause map[Cause]int
	// LongLatency counts manifested faults that crossed VM entry, and how
	// many of those were detected.
	LongLatency         int
	LongLatencyDetected int
	// Latencies collects detection latencies (instructions) per technique.
	Latencies map[core.Technique][]uint64
	Hangs     int
	// FalsePositives counts non-manifested runs flagged by the transition
	// detector.
	FalsePositives int
	// Recovered counts runs in which a detection triggered live recovery;
	// RecoveredClean counts those whose final outcome matched the golden
	// run (recovery succeeded).
	Recovered      int
	RecoveredClean int
	// Prune counts run provenance (full budget / dead-value pre-pruned /
	// convergence early-exit). Mechanism, not outcome: the only field
	// allowed to differ between a pruned and an unpruned campaign.
	Prune PruneStats
	// Recovery aggregates recovery-engine attempts (strategy, outcome
	// class, per-technique class × latency). Empty unless the campaign ran
	// with a recovery strategy armed.
	Recovery RecoveryStats
	// BySite breaks every injection down by fault-site class. Legacy
	// register campaigns fill the gpr/ctl rows only; the map keys render
	// by site name in JSON (Site implements TextMarshaler).
	BySite map[Site]*SiteTally
	// ByVCPU counts injections per target CPU (always CPU 0 on the seed's
	// single-CPU machine).
	ByVCPU map[int]int
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	t := &Tally{}
	t.ensureMaps()
	return t
}

// ensureMaps initialises the map fields so Add and Merge work on a
// zero-value Tally (e.g. one decoded from JSON or embedded in a struct)
// exactly as on one from NewTally.
func (t *Tally) ensureMaps() {
	if t.DetectedBy == nil {
		t.DetectedBy = map[core.Technique]int{}
	}
	if t.ByConsequence == nil {
		t.ByConsequence = map[guest.Consequence]*ConsequenceTally{}
	}
	if t.ByCause == nil {
		t.ByCause = map[Cause]int{}
	}
	if t.Latencies == nil {
		t.Latencies = map[core.Technique][]uint64{}
	}
	if t.BySite == nil {
		t.BySite = map[Site]*SiteTally{}
	}
	if t.ByVCPU == nil {
		t.ByVCPU = map[int]int{}
	}
}

// Add folds one outcome into the tally.
func (t *Tally) Add(o Outcome) {
	t.ensureMaps()
	t.Injections++
	site := t.BySite[o.Plan.Site]
	if site == nil {
		site = &SiteTally{}
		t.BySite[o.Plan.Site] = site
	}
	site.Injections++
	t.ByVCPU[o.Plan.VCPU]++
	t.Prune.count(o.Pruned, o.Plan.Site)
	t.Recovery.count(o)
	if o.Hang {
		t.Hangs++
	}
	if o.Recovered {
		t.Recovered++
		if !o.Manifested {
			t.RecoveredClean++
		}
	}
	if !o.Activated && !o.Manifested {
		t.NonActivated++
		return
	}
	if !o.Manifested {
		if o.Detected == core.TechVMTransition {
			t.FalsePositives++
		}
		t.Benign++
		return
	}
	t.Manifested++
	site.Manifested++
	ct := t.ByConsequence[o.Consequence]
	if ct == nil {
		ct = &ConsequenceTally{}
		t.ByConsequence[o.Consequence] = ct
	}
	ct.Total++
	if o.Detected != core.TechNone {
		t.DetectedBy[o.Detected]++
		t.Latencies[o.Detected] = append(t.Latencies[o.Detected], o.Latency)
		ct.Detected++
		site.Detected++
	} else {
		t.Undetected++
		t.ByCause[o.Cause]++
	}
	if o.LongLatency {
		t.LongLatency++
		if o.Detected != core.TechNone {
			t.LongLatencyDetected++
		}
	}
}

// Merge folds another tally into this one. Merging a nil or empty tally is
// a no-op; merging into a zero-value Tally works like merging into
// NewTally(). Merge is commutative and associative up to the order of the
// per-technique latency lists — Normalize puts those in canonical form, so
// folding any partition of outcomes shard-by-shard and merging yields the
// same normalized tally as folding them unsharded.
func (t *Tally) Merge(other *Tally) {
	if other == nil {
		return
	}
	t.ensureMaps()
	t.Injections += other.Injections
	t.NonActivated += other.NonActivated
	t.Benign += other.Benign
	t.Manifested += other.Manifested
	t.Undetected += other.Undetected
	t.LongLatency += other.LongLatency
	t.LongLatencyDetected += other.LongLatencyDetected
	t.Hangs += other.Hangs
	t.FalsePositives += other.FalsePositives
	t.Recovered += other.Recovered
	t.RecoveredClean += other.RecoveredClean
	t.Prune.add(other.Prune)
	t.Recovery.add(other.Recovery)
	for k, v := range other.DetectedBy {
		t.DetectedBy[k] += v
	}
	for k, v := range other.ByCause {
		t.ByCause[k] += v
	}
	for k, v := range other.ByConsequence {
		ct := t.ByConsequence[k]
		if ct == nil {
			ct = &ConsequenceTally{}
			t.ByConsequence[k] = ct
		}
		ct.Total += v.Total
		ct.Detected += v.Detected
	}
	for k, v := range other.Latencies {
		t.Latencies[k] = append(t.Latencies[k], v...)
	}
	for k, v := range other.BySite {
		st := t.BySite[k]
		if st == nil {
			st = &SiteTally{}
			t.BySite[k] = st
		}
		st.Injections += v.Injections
		st.Manifested += v.Manifested
		st.Detected += v.Detected
	}
	for k, v := range other.ByVCPU {
		t.ByVCPU[k] += v
	}
}

// Clone returns a deep copy: mutating the clone (Add, Merge, Normalize)
// never touches the original's maps or latency slices.
func (t *Tally) Clone() *Tally {
	c := *t
	c.DetectedBy = make(map[core.Technique]int, len(t.DetectedBy))
	for k, v := range t.DetectedBy {
		c.DetectedBy[k] = v
	}
	c.ByCause = make(map[Cause]int, len(t.ByCause))
	for k, v := range t.ByCause {
		c.ByCause[k] = v
	}
	c.ByConsequence = make(map[guest.Consequence]*ConsequenceTally, len(t.ByConsequence))
	for k, v := range t.ByConsequence {
		ct := *v
		c.ByConsequence[k] = &ct
	}
	c.Latencies = make(map[core.Technique][]uint64, len(t.Latencies))
	for k, v := range t.Latencies {
		c.Latencies[k] = append([]uint64(nil), v...)
	}
	c.BySite = make(map[Site]*SiteTally, len(t.BySite))
	for k, v := range t.BySite {
		st := *v
		c.BySite[k] = &st
	}
	c.ByVCPU = make(map[int]int, len(t.ByVCPU))
	for k, v := range t.ByVCPU {
		c.ByVCPU[k] = v
	}
	c.Recovery = t.Recovery.clone()
	return &c
}

// Normalize puts the tally in canonical form by sorting each technique's
// latency list. Every other field is a count, so after Normalize the tally
// is bit-identical regardless of the order outcomes were folded in — the
// property that lets sharded, resumed, and store-replayed campaigns compare
// equal to a single-process run. All campaign entry points normalize their
// results before returning them.
func (t *Tally) Normalize() {
	for _, latencies := range t.Latencies {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	}
	t.Recovery.normalize()
}

// Coverage is detected/manifested — the paper's headline metric. It is 0
// for an empty tally (no manifested faults means nothing to cover).
func (t *Tally) Coverage() float64 {
	if t.Manifested == 0 {
		return 0
	}
	detected := t.Manifested - t.Undetected
	return float64(detected) / float64(t.Manifested)
}

// TechniqueShare is the fraction of manifested faults a technique caught.
// It is 0 when no faults manifested (including on an empty or zero-value
// tally), never NaN.
func (t *Tally) TechniqueShare(tech core.Technique) float64 {
	if t.Manifested == 0 || t.DetectedBy == nil {
		return 0
	}
	return float64(t.DetectedBy[tech]) / float64(t.Manifested)
}

// CampaignResult is the aggregated output of a campaign.
type CampaignResult struct {
	PerBenchmark map[string]*Tally
	Total        *Tally
}

// Normalize puts every tally of the result in canonical form (see
// Tally.Normalize).
func (r *CampaignResult) Normalize() {
	for _, t := range r.PerBenchmark {
		t.Normalize()
	}
	if r.Total != nil {
		r.Total.Normalize()
	}
}

// Normalized returns the config with defaults applied: all six benchmarks
// when none are named, 160 activations when unset, GOMAXPROCS workers. The
// seed schedule derived from a normalized config is the campaign's
// identity — shards, resumed runs, and remote workers all reproduce the
// exact same plans from it.
func (cfg CampaignConfig) Normalized() CampaignConfig {
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = workload.Names()
	}
	if cfg.Activations == 0 {
		cfg.Activations = 160
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.VCPUs == 0 {
		cfg.VCPUs = 1
	}
	cfg.Targets = NormalizeTargets(cfg.Targets)
	return cfg
}

// RunCampaign executes the campaign with a worker pool and returns
// deterministic aggregates: plans are pre-generated from the seed, outcomes
// are folded at their original plan index, and the result is normalized.
// Each worker owns one reusable machine restored from the runner's shared
// read-only checkpoint pool per run, so the fault-free prefix is never
// re-simulated from machine reset; workers claim plans sorted by activation
// through an atomic counter. It is ResumeCampaign with no sink: nothing is
// persisted and nothing is skipped.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return ResumeCampaign(context.Background(), cfg, nil)
}
