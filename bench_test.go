package xentry

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md §5. Each bench reports the figure's headline
// metric via b.ReportMetric so `go test -bench=. -benchmem` regenerates the
// evaluation's numbers alongside the timings. Benches run at QuickScale,
// except the tree-induction and dataset-collection benches, which time the
// DefaultScale work every experiments.Train call does; use
// cmd/xentry-report for the full-scale numbers.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"xentry/internal/core"
	"xentry/internal/experiments"
	"xentry/internal/guest"
	"xentry/internal/hv"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/recovery"
	"xentry/internal/server"
	"xentry/internal/sim"
	"xentry/internal/stats"
	"xentry/internal/workload"
)

// trainedModel caches the QuickScale training result across benches.
var trainedModel *experiments.TrainResult

func model(b *testing.B) *experiments.TrainResult {
	b.Helper()
	if trainedModel == nil {
		res, err := experiments.Train(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		trainedModel = res
	}
	return trainedModel
}

// BenchmarkFig3ActivationFrequency regenerates the Fig. 3 box plots and
// reports the PV-vs-HVM median ratio (the figure's headline: PV activates
// the hypervisor far more often).
func BenchmarkFig3ActivationFrequency(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		var pv, hvm float64
		for _, row := range res.Rows {
			if row.Mode == workload.PV {
				pv += row.Summary.Median
			} else {
				hvm += row.Summary.Median
			}
		}
		ratio = pv / hvm
	}
	b.ReportMetric(ratio, "pv/hvm-median-ratio")
}

// BenchmarkTableIFeatureCollection measures the per-activation cost of
// collecting the Table I feature vector (counter arm/read plus exit-reason
// capture) through the sentry.
func BenchmarkTableIFeatureCollection(b *testing.B) {
	h, err := hv.New(3)
	if err != nil {
		b.Fatal(err)
	}
	s := core.New(h, core.FullDetection())
	args, err := hv.PrepareGuestInput(h, 1, hv.HCEventChannelOp, 5)
	if err != nil {
		b.Fatal(err)
	}
	ev := &hv.ExitEvent{Reason: hv.HCEventChannelOp, Dom: 1, Args: args}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(ev, hv.DefaultBudget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec3TrainDecisionTree regenerates the decision-tree half of the
// Section III-B study and reports its test accuracy (paper: 96.1%). The
// timed loop induces the tree on the DefaultScale training set, the one
// xentry-report trains on.
func BenchmarkSec3TrainDecisionTree(b *testing.B) {
	res := model(b)
	ds := defaultTrainSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Train(ds, ml.DefaultDecisionTree()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.DecisionTreeEval.Accuracy(), "accuracy-%")
}

// BenchmarkSec3TrainRandomTree regenerates the random-tree half (paper:
// 98.6%, the selected model) on the DefaultScale training set.
func BenchmarkSec3TrainRandomTree(b *testing.B) {
	res := model(b)
	ds := defaultTrainSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Train(ds, ml.DefaultRandomTree(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.RandomEval.Accuracy(), "accuracy-%")
	b.ReportMetric(100*res.RandomEval.FalsePositiveRate(), "fpr-%")
}

var cachedTrainSet ml.Dataset

// defaultTrainSet is the DefaultScale training set, collected once.
func defaultTrainSet(b *testing.B) ml.Dataset {
	b.Helper()
	if cachedTrainSet == nil {
		cfg, _ := experiments.DatasetConfigs(experiments.DefaultScale())
		ds, err := inject.CollectDataset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cachedTrainSet = ds
	}
	return cachedTrainSet
}

// BenchmarkCollectDataset collects the DefaultScale training and testing
// sets, the collection every experiments.Train call performs, and reports
// samples gathered per second.
func BenchmarkCollectDataset(b *testing.B) {
	trainCfg, testCfg := experiments.DatasetConfigs(experiments.DefaultScale())
	samples := 0
	for i := 0; i < b.N; i++ {
		for _, cfg := range []inject.DatasetConfig{trainCfg, testCfg} {
			ds, err := inject.CollectDataset(cfg)
			if err != nil {
				b.Fatal(err)
			}
			samples += len(ds)
		}
	}
	b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/s")
}

// datasetFrom rebuilds a small training set for the ablation benches so
// the timed loop measures induction, not collection.
var cachedDataset ml.Dataset

func datasetFrom(b *testing.B, _ *experiments.TrainResult) ml.Dataset {
	b.Helper()
	if cachedDataset == nil {
		cfg := inject.DatasetConfig{
			Benchmarks:             []string{"postmark", "mcf"},
			Mode:                   workload.PV,
			FaultFreeRuns:          2,
			Activations:            80,
			InjectionsPerBenchmark: 250,
			Seed:                   5,
		}
		ds, err := inject.CollectDataset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cachedDataset = ds
	}
	return cachedDataset
}

// BenchmarkFig6Classify measures one VM-entry classification (the paper's
// "a set of simple integer comparisons").
func BenchmarkFig6Classify(b *testing.B) {
	res := model(b)
	tree := res.Best()
	features := [ml.NumFeatures]uint64{uint64(hv.HCEventChannelOp), 120, 30, 20, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Classify(features)
	}
}

// BenchmarkFig7Overhead regenerates the fault-free overhead study and
// reports the cross-benchmark average (paper: ≈2.5%) and postmark's
// maximum (paper: 11.7%).
func BenchmarkFig7Overhead(b *testing.B) {
	res := model(b)
	var avg, postmarkMax float64
	for i := 0; i < b.N; i++ {
		fig7, err := experiments.Fig7(experiments.QuickScale(), res.Best())
		if err != nil {
			b.Fatal(err)
		}
		avg = fig7.AvgFull
		for _, row := range fig7.Rows {
			if row.Benchmark == "postmark" {
				postmarkMax = row.FullMax
			}
		}
	}
	b.ReportMetric(100*avg, "avg-overhead-%")
	b.ReportMetric(100*postmarkMax, "postmark-max-%")
}

// campaignResult caches one QuickScale campaign for the Figs. 8-10/Table II
// benches.
var campaignResult *inject.CampaignResult

func campaign(b *testing.B) *inject.CampaignResult {
	b.Helper()
	if campaignResult == nil {
		res, err := experiments.Campaign(experiments.QuickScale(), model(b).Best())
		if err != nil {
			b.Fatal(err)
		}
		campaignResult = res
	}
	return campaignResult
}

// BenchmarkFig8Campaign runs the detection-effectiveness campaign and
// reports overall coverage (paper: 97.6% average, up to 99.4%) and the
// hardware-exception share (paper: 85.1%).
func BenchmarkFig8Campaign(b *testing.B) {
	var coverage, hwShare float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Campaign(experiments.QuickScale(), model(b).Best())
		if err != nil {
			b.Fatal(err)
		}
		coverage = res.Total.Coverage()
		hwShare = res.Total.TechniqueShare(core.TechHWException)
		campaignResult = res
	}
	b.ReportMetric(100*coverage, "coverage-%")
	b.ReportMetric(100*hwShare, "hw-exception-share-%")
}

// BenchmarkFig9LongLatency reports detection coverage of the long-latency
// errors that crossed VM entry (paper: 92.6% of SDCs, 96.8% of crashes).
func BenchmarkFig9LongLatency(b *testing.B) {
	res := campaign(b)
	var sdcCov float64
	for i := 0; i < b.N; i++ {
		if ct := res.Total.ByConsequence[guest.AppSDC]; ct != nil && ct.Total > 0 {
			sdcCov = float64(ct.Detected) / float64(ct.Total)
		}
	}
	b.ReportMetric(100*sdcCov, "sdc-coverage-%")
	if res.Total.LongLatency > 0 {
		b.ReportMetric(100*float64(res.Total.LongLatencyDetected)/float64(res.Total.LongLatency),
			"long-latency-coverage-%")
	}
}

// BenchmarkFig10LatencyCDF reports the 95th-percentile detection latency of
// VM transition detection (paper: 95% within 700 instructions).
func BenchmarkFig10LatencyCDF(b *testing.B) {
	res := campaign(b)
	var p95 float64
	for i := 0; i < b.N; i++ {
		lats := res.Total.Latencies[core.TechVMTransition]
		if len(lats) == 0 {
			continue
		}
		xs := make([]float64, len(lats))
		for j, l := range lats {
			xs[j] = float64(l)
		}
		p95 = stats.Quantile(xs, 0.95)
	}
	b.ReportMetric(p95, "vmtd-p95-instructions")
}

// BenchmarkTableIIUndetected reports the time-value share of undetected
// faults (paper Table II: 53%).
func BenchmarkTableIIUndetected(b *testing.B) {
	res := campaign(b)
	var timeShare float64
	for i := 0; i < b.N; i++ {
		if res.Total.Undetected > 0 {
			timeShare = float64(res.Total.ByCause[inject.CauseTimeValue]) /
				float64(res.Total.Undetected)
		}
	}
	b.ReportMetric(100*timeShare, "time-values-share-%")
}

// BenchmarkFig11Recovery regenerates the recovery-overhead estimate and
// reports its cross-benchmark average (paper: ≈2.7%).
func BenchmarkFig11Recovery(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(experiments.QuickScale(), 0.007)
		if err != nil {
			b.Fatal(err)
		}
		avg = res.Avg
	}
	b.ReportMetric(100*avg, "avg-overhead-%")
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationNoTransitionDetection measures campaign coverage with
// the transition detector removed: the long-latency errors it alone can
// catch become undetected.
func BenchmarkAblationNoTransitionDetection(b *testing.B) {
	var coverage float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Campaign(experiments.QuickScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		coverage = res.Total.Coverage()
	}
	b.ReportMetric(100*coverage, "coverage-%")
}

// BenchmarkAblationNoAssertions measures coverage with software assertions
// compiled out (runtime detection keeps only hardware exceptions).
func BenchmarkAblationNoAssertions(b *testing.B) {
	var assertShare float64
	for i := 0; i < b.N; i++ {
		sc := experiments.QuickScale()
		cfg := inject.CampaignConfig{
			Benchmarks:             []string{"postmark", "mcf"},
			Mode:                   workload.PV,
			InjectionsPerBenchmark: sc.CampaignInjections,
			Activations:            sc.Activations,
			Seed:                   sc.Seed + 13,
			Detection:              core.Options{TransitionDetection: true},
			Model:                  model(b).Best(),
		}
		res, err := inject.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		assertShare = res.Total.TechniqueShare(core.TechAssertion)
	}
	b.ReportMetric(100*assertShare, "assertion-share-%")
}

// BenchmarkAblationTreeDepth sweeps the tree-depth bound and reports the
// accuracy of the shallowest (depth 4) model against the default.
func BenchmarkAblationTreeDepth(b *testing.B) {
	ds := datasetFrom(b, model(b))
	var acc4 float64
	for i := 0; i < b.N; i++ {
		tree, err := ml.Train(ds, ml.Config{MaxDepth: 4, MinLeaf: 2})
		if err != nil {
			b.Fatal(err)
		}
		acc4 = ml.Evaluate(tree, ds).Accuracy()
	}
	b.ReportMetric(100*acc4, "depth4-accuracy-%")
}

// BenchmarkAblationFeatureDrop drops the VMER feature (train on counters
// only) and reports the coverage with and without it. The paper calls VMER
// the most relevant feature; in this substrate handler identity is largely
// recoverable from RT, so the delta is small — see EXPERIMENTS.md.
func BenchmarkAblationFeatureDrop(b *testing.B) {
	ds := datasetFrom(b, model(b))
	masked := make(ml.Dataset, len(ds))
	for i, s := range ds {
		s.Features[ml.FeatVMER] = 0
		masked[i] = s
	}
	var full, noVMER float64
	for i := 0; i < b.N; i++ {
		t1, err := ml.Train(ds, ml.DefaultDecisionTree())
		if err != nil {
			b.Fatal(err)
		}
		t2, err := ml.Train(masked, ml.DefaultDecisionTree())
		if err != nil {
			b.Fatal(err)
		}
		full = ml.Evaluate(t1, ds).Coverage()
		noVMER = ml.Evaluate(t2, masked).Coverage()
	}
	b.ReportMetric(100*full, "coverage-with-vmer-%")
	b.ReportMetric(100*noVMER, "coverage-without-vmer-%")
}

// BenchmarkDispatch measures a single raw hypervisor execution (the
// substrate the whole evaluation stands on).
func BenchmarkDispatch(b *testing.B) {
	h, err := hv.New(3)
	if err != nil {
		b.Fatal(err)
	}
	args, err := hv.PrepareGuestInput(h, 1, hv.HCMemoryOp, 9)
	if err != nil {
		b.Fatal(err)
	}
	ev := &hv.ExitEvent{Reason: hv.HCMemoryOp, Dom: 1, Args: args}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Dispatch(ev, hv.DefaultBudget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInjectionRun measures one full golden-differential injection run
// (the unit of the 30,000-fault campaign).
func BenchmarkInjectionRun(b *testing.B) {
	runner, err := inject.NewRunner(sim.DefaultConfig("postmark", 3), 80, nil)
	if err != nil {
		b.Fatal(err)
	}
	plan := inject.Plan{Activation: 40, Step: 5, Reg: 3, Bit: 44}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunOne(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep measures the per-activation cost of the simulator as the
// injection engine pays it: a Runner worker's machine (so the golden run's
// draw table is live), restored from the reset checkpoint and stepped
// through a 160-activation fault-free suffix, at 1 and 4 vCPUs. It reports
// ns/step (restore included, 1/160 of it per step) and allocs/op per
// 160-activation pass; TestStepAllocFree holds the latter at 0.
func BenchmarkStep(b *testing.B) {
	for _, vcpus := range []int{1, 4} {
		b.Run(fmt.Sprintf("vcpus=%d", vcpus), func(b *testing.B) {
			pass := stepPass(b, vcpus)
			pass() // build the pool and the worker's machine untimed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepActivations), "ns/step")
		})
	}
}

// stepActivations is the length of BenchmarkStep's fault-free run.
const stepActivations = 160

// stepPass returns one pass of BenchmarkStep: a postmark (seed 3) worker
// machine at vcpus, restored to activation 0 and stepped through
// stepActivations activations.
func stepPass(tb testing.TB, vcpus int) func() {
	tb.Helper()
	cfg := sim.DefaultConfig("postmark", 3)
	cfg.VCPUs = vcpus
	runner, err := inject.NewRunner(cfg, stepActivations, nil)
	if err != nil {
		tb.Fatal(err)
	}
	w := runner.NewWorker()
	var act sim.Activation
	return func() {
		m, err := w.MachineAt(0)
		if err != nil {
			tb.Fatal(err)
		}
		for j := 0; j < stepActivations; j++ {
			if err := m.StepInto(&act); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkCampaignThroughput measures raw campaign engine throughput —
// injections per second — with the checkpoint pool at several intervals K
// and with checkpointing disabled (every run replays its fault-free prefix
// from machine reset, the pre-checkpoint engine). The K=1+recover variant
// arms the microreboot recovery engine, so the cost of salvaging and
// re-entering detected runs shows up next to the detection-only numbers;
// microreboot never reads the VM-exit snapshot, so only K=1+restore, with
// the restore engine armed, and K=1+sec6, with the paper's Section VI
// recovery (Runner.Recover), take it at every step.
func BenchmarkCampaignThroughput(b *testing.B) {
	for _, v := range campaignVariants {
		b.Run(v.name, func(b *testing.B) {
			worker, plans := engineWorker(b, v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := worker.RunOne(plans[i%len(plans)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportInjections(b)
		})
	}
}

// engineVariant is one shape of the injection engine that
// BenchmarkCampaignThroughput, BenchmarkSiteThroughput and
// TestInjectionPassAllocs drive.
type engineVariant struct {
	name    string
	vcpus   int    // 0 keeps the default single vCPU
	every   int    // checkpoint interval K; -1 disables checkpointing
	recover string // "sec6" (Runner.Recover), a recovery.EngineFor name, or "" for none
	target  string // the only fault-site class; "" keeps the default
}

// campaignVariants are BenchmarkCampaignThroughput's variants.
var campaignVariants = []engineVariant{
	{name: "K=1", every: 1},
	{name: "K=16", every: 16},
	{name: "K=off", every: -1},
	{name: "K=1+recover", every: 1, recover: "microreboot"},
	{name: "K=1+restore", every: 1, recover: "restore"},
	{name: "K=1+sec6", every: 1, recover: "sec6"},
}

// siteVariants are BenchmarkSiteThroughput's variants: K=1 on a 4-vCPU
// machine, one per fault-site class.
func siteVariants() []engineVariant {
	var vs []engineVariant
	for _, target := range inject.TargetNames() {
		vs = append(vs, engineVariant{name: target, vcpus: 4, every: 1, target: target})
	}
	return vs
}

// engineWorker builds v's postmark runner (seed 3, 160 activations) with
// its checkpoint pool, as RunCampaign builds it before dispatching
// workers, and returns one worker and 256 plans drawn from seed 17 in
// activation order, matching the campaign claim loop.
func engineWorker(tb testing.TB, v engineVariant) (*inject.Worker, []inject.Plan) {
	tb.Helper()
	cfg := sim.DefaultConfig("postmark", 3)
	if v.vcpus > 0 {
		cfg.VCPUs = v.vcpus
	}
	runner, err := inject.NewRunner(cfg, 160, nil)
	if err != nil {
		tb.Fatal(err)
	}
	runner.CheckpointEvery = v.every
	if v.target != "" {
		runner.Targets = inject.NormalizeTargets([]string{v.target})
	}
	switch v.recover {
	case "":
	case "sec6":
		runner.Recover = true
	default:
		engine, err := recovery.EngineFor(v.recover)
		if err != nil {
			tb.Fatal(err)
		}
		runner.Recovery = engine
	}
	if err := runner.EnsureCheckpoints(); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	plans := make([]inject.Plan, 256)
	for i := range plans {
		plans[i] = runner.RandomPlan(rng)
	}
	sort.Slice(plans, func(i, j int) bool {
		return plans[i].Activation < plans[j].Activation
	})
	return runner.NewWorker(), plans
}

// reportInjections reports a stopped throughput bench's inj/s and ns/inj,
// one injection per iteration.
func reportInjections(b *testing.B) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "inj/s")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inj")
}

// prepareConfig is campaign-smp-recover's machine shape for one
// benchmark: 100 plans over 160 activations of a 4-vCPU, all-targets
// postmark run with the recovery policy armed and a K=1 pool.
func prepareConfig(m *ml.Tree, prune bool) inject.CampaignConfig {
	cfg := inject.DefaultCampaign(100, 42)
	cfg.Benchmarks = []string{"postmark"}
	cfg.VCPUs = 4
	cfg.Targets = inject.TargetNames()
	cfg.Recovery = "policy"
	cfg.CheckpointEvery = 1
	cfg.DisablePrune = !prune
	cfg.Model = m
	return cfg
}

// BenchmarkPrepareBenchmark measures the fixed cost a campaign pays per
// benchmark on prepareConfig's machine shape with the QuickScale model
// installed: PrepareBenchmark (golden run, plans, the K=1 pool their
// runs restore) plus one worker's first run (its machine build and first
// restore) in claim order. With prune=on the reference replay keeps its
// pruning tables, since this model raises no detection on the fault-free
// stream. prune=off is the path campaign-smp-recover's runners take: the
// DefaultScale model it trains does raise one, and the replay drops the
// tables.
func BenchmarkPrepareBenchmark(b *testing.B) {
	for _, prune := range []bool{true, false} {
		name := "prune=off"
		if prune {
			name = "prune=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := prepareConfig(model(b).Best(), prune)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br, err := inject.PrepareBenchmark(cfg, 0)
				if err != nil {
					b.Fatal(err)
				}
				first := br.Plans[inject.ActivationOrder(br.Plans)[0]]
				if _, err := br.Runner.NewWorker().RunOne(first); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointPool measures building one 160-activation runner's
// checkpoint pool, with the pruning tables the same reference replay
// records, at K=1 and K=16. Besides time and allocations it reports
// pool-B, the live heap the built pool holds: the heap delta across the
// build, each side measured after two GCs. The golden run stays outside
// the timer.
func BenchmarkCheckpointPool(b *testing.B) {
	for _, every := range []int{1, 16} {
		b.Run(fmt.Sprintf("K=%d", every), func(b *testing.B) {
			b.ReportAllocs()
			var held int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runner, err := inject.NewRunner(sim.DefaultConfig("postmark", 3), 160, nil)
				if err != nil {
					b.Fatal(err)
				}
				runner.CheckpointEvery = every
				before := liveHeap()
				b.StartTimer()
				if err := runner.EnsureCheckpoints(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				held += liveHeap() - before
				runtime.KeepAlive(runner)
				b.StartTimer()
			}
			b.ReportMetric(float64(held)/float64(b.N), "pool-B")
		})
	}
}

// liveHeap returns the bytes of live heap objects after two GCs.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkSiteThroughput measures K=1 campaign engine throughput for each
// fault-site class on a 4-vCPU machine, so the per-class cost of the
// uncore injection paths (TLB invalidation before D-TLB plans, cross-CPU
// APIC/PMU flips, page-table word flips) is tracked next to the register
// baseline instead of hiding inside a mixed campaign.
func BenchmarkSiteThroughput(b *testing.B) {
	for _, v := range siteVariants() {
		b.Run(v.name, func(b *testing.B) {
			worker, plans := engineWorker(b, v)
			// Warm pass: run the whole plan population once untimed so the
			// translation cache, the worker's machine, and the checkpoint
			// pool's page-hash tables are all hot before the clock starts —
			// otherwise short -benchtime runs charge one-time warm-up to a
			// handful of iterations and the per-site numbers jitter.
			for _, p := range plans {
				if _, err := worker.RunOne(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := worker.RunOne(plans[i%len(plans)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportInjections(b)
		})
	}
}

// BenchmarkFleetCampaign runs one campaign end to end over a loopback
// fleet: an in-process Server and Fleet, two RunWorker goroutines, and six
// 1,000-plan benchmarks under a small model the coordinator trains from
// the spec and ships in each worker's Welcome. shard=64 pins the old fixed
// lease size (the server's ShardSize) and shard=auto derives each lease's
// size from the work left; both report inj/s (submit to report) and
// leases/op, the per-lease cost the derived size cuts.
func BenchmarkFleetCampaign(b *testing.B) {
	for _, bc := range []struct {
		name  string
		shard int
	}{{"shard=64", 64}, {"shard=auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			var leases, injections int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, stats := fleetCampaign(b, bc.shard)
				leases += stats.Leases
				injections += int64(n)
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(injections)/secs, "inj/s")
			}
			b.ReportMetric(float64(leases)/float64(b.N), "leases/op")
		})
	}
}

// fleetCampaign runs BenchmarkFleetCampaign's campaign once, timing only
// the client's submit-to-report call, and returns the injection count and
// the fleet's counters.
func fleetCampaign(b *testing.B, shardSize int) (int, server.FleetStats) {
	fleet, err := server.NewFleet("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	srv, err := server.NewServer(server.Config{DataDir: b.TempDir(), Fleet: fleet, ShardSize: shardSize})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &server.Client{Base: hs.URL, HTTPClient: &http.Client{Transport: transport}}
	spec := server.CampaignSpec{
		ID:                     "bench-fleet",
		InjectionsPerBenchmark: 1000,
		Seed:                   20140901,
		TrainInjections:        60,
		Execution:              "fleet",
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = server.RunWorker(ctx, server.WorkerOptions{
				Coordinator:   fleet.Addr(),
				Campaign:      spec.ID,
				RetryInterval: 5 * time.Millisecond,
				MaxDials:      1000,
			})
		}(w)
	}
	b.StartTimer()
	rep, err := client.RunToCompletion(ctx, spec, nil)
	b.StopTimer()
	cancel()
	wg.Wait()
	if err != nil {
		b.Fatal(err)
	}
	for w, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			b.Fatalf("worker %d: %v", w, werr)
		}
	}
	return rep.Injections, fleet.Stats()
}

// BenchmarkRecoveryEffectiveness runs the paired Section VI live-recovery
// study and reports the recovery success rate and failure reduction.
func BenchmarkRecoveryEffectiveness(b *testing.B) {
	var success, reduction float64
	for i := 0; i < b.N; i++ {
		study, err := experiments.Recovery(experiments.QuickScale(), model(b).Best())
		if err != nil {
			b.Fatal(err)
		}
		success = study.SuccessRate()
		bt, wt := study.Baseline.Total, study.WithRecovery.Total
		if bt.Manifested > 0 {
			reduction = 1 - float64(wt.Manifested)/float64(bt.Manifested)
		}
	}
	b.ReportMetric(100*success, "recovery-success-%")
	b.ReportMetric(100*reduction, "failure-reduction-%")
}

// BenchmarkAblationNaiveBayes trains the generative baseline the paper
// argues against and reports its coverage of incorrect executions next to
// the tree's.
func BenchmarkAblationNaiveBayes(b *testing.B) {
	ds := datasetFrom(b, model(b))
	var treeCov, nbCov float64
	for i := 0; i < b.N; i++ {
		tree, err := ml.Train(ds, ml.DefaultRandomTree(3))
		if err != nil {
			b.Fatal(err)
		}
		nb, err := ml.TrainNaiveBayes(ds)
		if err != nil {
			b.Fatal(err)
		}
		treeCov = ml.Evaluate(tree, ds).Coverage()
		nbCov = ml.Evaluate(nb, ds).Coverage()
	}
	b.ReportMetric(100*treeCov, "tree-coverage-%")
	b.ReportMetric(100*nbCov, "bayes-coverage-%")
}

// BenchmarkAblationHVMCampaign runs the campaign under hardware-assisted
// virtualization instead of the paper's PV setup — the exit mix shifts to
// emulation-centric reasons but the detection structure is unchanged.
func BenchmarkAblationHVMCampaign(b *testing.B) {
	var coverage float64
	for i := 0; i < b.N; i++ {
		sc := experiments.QuickScale()
		cfg := inject.CampaignConfig{
			Benchmarks:             []string{"postmark", "bzip2"},
			Mode:                   workload.HVM,
			InjectionsPerBenchmark: sc.CampaignInjections,
			Activations:            sc.Activations,
			Seed:                   sc.Seed + 13,
			Detection:              core.FullDetection(),
			Model:                  model(b).Best(),
		}
		res, err := inject.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		coverage = res.Total.Coverage()
	}
	b.ReportMetric(100*coverage, "hvm-coverage-%")
}
