package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"

	"xentry/internal/core"
	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/server"
	"xentry/internal/workload"
)

// env is what every iteration of one run shares.
type env struct {
	opts options
	seq  atomic.Int64
}

// tempDir returns a fresh directory under the run's output directory.
func (e *env) tempDir(kind string) (string, error) {
	dir := filepath.Join(e.opts.outDir, fmt.Sprintf("%s-%d-%d", kind, os.Getpid(), e.seq.Add(1)))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// output is one iteration's checked result, plus what the traced run's
// layer probes need.
type output struct {
	digest     string
	injections int
	// probe inputs (traced iterations only)
	cfg      inject.CampaignConfig       // the campaign the sim probe replays
	result   *inject.CampaignResult      // the campaign result the probes cross-check
	outcomes map[string][]inject.Outcome // per benchmark, in plan order
	prune    *inject.Tally               // the tally whose prune counts are reported
	recovery *inject.Tally               // the tally whose recovery counts are reported
	storeDir string                      // a finished campaign store, when the workload has one
	cleanup  string                      // removed once the probes are done
	samples  int                         // dataset samples trained on
	fleet    *server.FleetStats
}

type workloadDef struct {
	name string
	run  func(env *env, clk *clock, tr *tracer) (*output, error)
}

var workloads = map[string]*workloadDef{
	"paper-report":         {name: "paper-report", run: runPaperReport},
	"campaign-gpr":         {name: "campaign-gpr", run: runCampaignGPR},
	"campaign-smp-recover": {name: "campaign-smp-recover", run: runCampaignSMP},
	"fleet-wal":            {name: "fleet-wal", run: runFleetWAL},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Campaign sizes in injections per benchmark (six benchmarks each).
// campaign-gpr and fleet-wal run 4x the paper's 30,000 injections so the
// timed phase lasts seconds; campaign-smp-recover runs 18,000 in all,
// since its unpruned runs cost ~0.85 ms each, split over smpParts
// campaigns of smpPerBench injections per benchmark.
func gprPerBench(quick bool) int {
	if quick {
		return 40
	}
	return 20000
}

func smpPerBench(quick bool) int {
	if quick {
		return 30
	}
	return 3000 / smpParts(false)
}

// smpParts is how many campaigns campaign-smp-recover runs, each on its
// own seed derived from --seed. Under the armed engine a campaign's cost
// is set by its six workload streams: one 18,000-injection campaign per
// seed moved work and allocation 1.5x between seeds (1.68-2.46 GB), so the
// injections are spread over six streams per part instead.
func smpParts(quick bool) int {
	if quick {
		return 2
	}
	return 30
}

// smpPartSeed is part i's seed. Parts of one run and runs of nearby seeds
// never share a seed, and the engine's per-benchmark seed offsets (7919 per
// benchmark) cannot map one part's streams onto another's.
func smpPartSeed(seed int64, i, parts int) int64 {
	return seed*int64(parts) + int64(i)
}

// trainInjections sizes a served campaign's model training: DefaultScale's
// 12,000 (test 6,000), which is also what xentry-report trains on.
func trainInjections(quick bool) int {
	if quick {
		return 600
	}
	return experiments.DefaultScale().TrainInjections
}

// servedSpec is the campaign identity every campaign workload uses: the
// one a campaign server derives from a spec. xentry-campaign -seed S
// draws plans from seed S+13 when it runs locally (CampaignConfigFor) but
// from S when it submits to a server (CampaignSpec.campaignConfig); the
// benchmark uses the served identity throughout so campaign-gpr and
// fleet-wal produce equal results.
func servedSpec(e *env, id string) server.CampaignSpec {
	return server.CampaignSpec{
		ID:                     id,
		InjectionsPerBenchmark: gprPerBench(e.opts.quick),
		Seed:                   e.opts.seed,
		TrainInjections:        trainInjections(e.opts.quick),
	}
}

func smpSpec(e *env, id string) server.CampaignSpec {
	sp := servedSpec(e, id)
	sp.InjectionsPerBenchmark = smpPerBench(e.opts.quick)
	sp.VCPUs = 4
	sp.Targets = inject.TargetNames()
	sp.Recovery = "policy"
	return sp
}

// trainScale is the training a served campaign performs, exactly as the
// server's runCampaign and every fleet worker derive it from the spec.
func trainScale(sp server.CampaignSpec) experiments.Scale {
	sc := experiments.DefaultScale()
	sc.Seed = sp.Seed
	sc.TrainInjections = sp.TrainInjections
	sc.TestInjections = sp.TrainInjections / 2
	return sc
}

// campaignConfig is the engine config a served spec describes (the
// server's withDefaults + campaignConfig), with the trained model.
func campaignConfig(sp server.CampaignSpec, model *ml.Tree) inject.CampaignConfig {
	return inject.CampaignConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		InjectionsPerBenchmark: sp.InjectionsPerBenchmark,
		Activations:            160,
		Seed:                   sp.Seed,
		Workers:                runtime.GOMAXPROCS(0),
		Detection:              core.FullDetection(),
		Model:                  model,
		Recovery:               sp.Recovery,
		VCPUs:                  sp.VCPUs,
		Targets:                sp.Targets,
	}
}

// train runs the §III-B training: opaque when untraced, decomposed into
// CollectDataset + ml.Train + ml.Evaluate (exactly experiments.Train's
// sequence) with a span around each when traced.
func train(sc experiments.Scale, tr *tracer, lane int, parent int32) (*experiments.TrainResult, error) {
	if tr == nil {
		return experiments.Train(sc)
	}
	root := tr.begin("experiments.train", lane, parent)
	defer tr.finish(root)
	trainCfg := inject.DatasetConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		FaultFreeRuns:          sc.TrainFaultFreeRuns,
		Activations:            sc.Activations,
		InjectionsPerBenchmark: sc.TrainInjections / len(workload.Names()),
		Seed:                   sc.Seed,
		Workers:                sc.Workers,
	}
	testCfg := trainCfg
	testCfg.FaultFreeRuns = sc.TestFaultFreeRuns
	testCfg.InjectionsPerBenchmark = sc.TestInjections / len(workload.Names())
	testCfg.Seed = sc.Seed + 777777
	var trainSet, testSet ml.Dataset
	var dt, rt *ml.Tree
	var dtEval, rtEval ml.Confusion
	steps := []struct {
		name string
		f    func() error
	}{
		{"inject.collect_dataset", func() (err error) { trainSet, err = inject.CollectDataset(trainCfg); return }},
		{"inject.collect_dataset", func() (err error) { testSet, err = inject.CollectDataset(testCfg); return }},
		{"ml.train", func() (err error) { dt, err = ml.Train(trainSet, ml.DefaultDecisionTree()); return }},
		{"ml.train", func() (err error) { rt, err = ml.Train(trainSet, ml.DefaultRandomTree(sc.Seed)); return }},
		{"ml.evaluate", func() error { dtEval = ml.Evaluate(dt, testSet); return nil }},
		{"ml.evaluate", func() error { rtEval = ml.Evaluate(rt, testSet); return nil }},
	}
	for _, s := range steps {
		if err := tr.do(s.name, lane, root, s.f); err != nil {
			return nil, err
		}
	}
	res := &experiments.TrainResult{
		TrainSamples:      len(trainSet),
		TestSamples:       len(testSet),
		DecisionTree:      dt,
		RandomTree:        rt,
		DecisionTreeEval:  dtEval,
		RandomEval:        rtEval,
		DecisionTreeSize:  dt.Size(),
		RandomSize:        rt.Size(),
		DecisionTreeDepth: dt.Depth(),
		RandomDeep:        rt.Depth(),
	}
	res.TrainCorrect, res.TrainIncorrect = trainSet.Counts()
	res.TestCorrect, res.TestIncorrect = testSet.Counts()
	return res, nil
}

// runCampaignGPR is the paper's Figs. 8–10 campaign on one vCPU with gpr
// targets and pruning on, in process on nproc workers.
func runCampaignGPR(e *env, clk *clock, tr *tracer) (*output, error) {
	sp := servedSpec(e, "campaign-gpr")
	return inProcessCampaign([]server.CampaignSpec{sp}, trainScale(sp), clk, tr)
}

// runCampaignSMP is the 4-vCPU, all-site-class campaign with the recovery
// policy armed, run as smpParts campaigns on seeds derived from --seed.
// Its model is trained at the default seed whatever --seed is: the armed
// engine fires on the model's false positives, so with a model trained
// per seed the campaign's work and allocation varied 1.5x between seeds.
// The seed still draws the plans and the workload streams.
func runCampaignSMP(e *env, clk *clock, tr *tracer) (*output, error) {
	sp := smpSpec(e, "campaign-smp-recover")
	sc := trainScale(sp)
	sc.Seed = defaultSeed
	parts := make([]server.CampaignSpec, smpParts(e.opts.quick))
	for i := range parts {
		parts[i] = sp
		parts[i].Seed = smpPartSeed(sp.Seed, i, len(parts))
	}
	return inProcessCampaign(parts, sc, clk, tr)
}

// inProcessCampaign trains once and runs each spec's campaign on the
// trained model. The probes see the first campaign; the reported counts,
// the injection total and the digest cover them all.
func inProcessCampaign(specs []server.CampaignSpec, sc experiments.Scale, clk *clock, tr *tracer) (*output, error) {
	root := tr.begin("iteration", 0, -1)
	defer tr.finish(root)
	trained, err := train(sc, tr, 0, root)
	if err != nil {
		return nil, err
	}
	out := &output{samples: trained.TrainSamples + trained.TestSamples, prune: inject.NewTally()}
	var digests []string
	for i, sp := range specs {
		cfg := campaignConfig(sp, trained.Best())
		var res *inject.CampaignResult
		var outcomes map[string][]inject.Outcome
		if tr == nil {
			cfg.Progress = func(done, total int) { clk.setupDone() }
			res, err = inject.RunCampaign(cfg)
		} else {
			var run *campaignRun
			run, err = tracedCampaign("experiments.campaign", cfg, tr, root, clk.setupDone)
			if run != nil {
				res, outcomes = run.res, run.outcomes
			}
		}
		if err != nil {
			return nil, err
		}
		if err := checkCampaign(res, cfg); err != nil {
			return nil, err
		}
		d, err := reportDigest(experiments.NewCampaignReport(res, cfg.Benchmarks))
		if err != nil {
			return nil, err
		}
		digests = append(digests, d)
		if i == 0 {
			out.cfg, out.result, out.outcomes = cfg, res, outcomes
		}
		out.prune.Merge(res.Total)
	}
	out.prune.Normalize()
	// Test-size runs draw too few plans to be sure of every site class.
	if len(specs[0].Targets) > 1 && out.prune.Injections >= 1000 {
		for _, s := range inject.Sites() {
			if st := out.prune.BySite[s]; st == nil || st.Injections == 0 {
				return nil, fmt.Errorf("campaign drew no %s injections", s)
			}
		}
	}
	out.recovery = out.prune
	out.injections = out.prune.Injections
	out.digest = digests[0]
	if len(digests) > 1 {
		out.digest = digest([]byte(strings.Join(digests, "\n")))
	}
	return out, nil
}

// checkCampaign checks the invariants every campaign result must hold,
// whatever the seed: every planned injection was tallied once, the
// per-benchmark tallies sum to the total, prune provenance and outcome
// classes partition the injections, and the recovery counts partition the
// attempts. inProcessCampaign checks that every drawn site class is present.
func checkCampaign(res *inject.CampaignResult, cfg inject.CampaignConfig) error {
	cfg = cfg.Normalized()
	t := res.Total
	if want := len(cfg.Benchmarks) * cfg.InjectionsPerBenchmark; t.Injections != want {
		return fmt.Errorf("campaign tallied %d injections, want %d", t.Injections, want)
	}
	sum := 0
	for _, b := range cfg.Benchmarks {
		if res.PerBenchmark[b] == nil {
			return fmt.Errorf("campaign result lacks benchmark %s", b)
		}
		sum += res.PerBenchmark[b].Injections
	}
	if sum != t.Injections {
		return fmt.Errorf("per-benchmark tallies sum to %d, total is %d", sum, t.Injections)
	}
	if p := t.Prune; p.Dead+p.Converged+p.Full != t.Injections {
		return fmt.Errorf("prune provenance covers %d of %d injections", p.Dead+p.Converged+p.Full, t.Injections)
	}
	if t.NonActivated+t.Benign+t.Manifested != t.Injections {
		return fmt.Errorf("outcome classes cover %d of %d injections", t.NonActivated+t.Benign+t.Manifested, t.Injections)
	}
	r := t.Recovery
	strategies, classes := 0, 0
	for _, n := range r.ByStrategy {
		strategies += n
	}
	for _, n := range r.ByClass {
		classes += n
	}
	if strategies != r.Attempts || classes != r.Attempts {
		return fmt.Errorf("recovery attempts %d split as %d strategies, %d classes", r.Attempts, strategies, classes)
	}
	if cfg.Recovery == "" && r.Attempts != 0 {
		return fmt.Errorf("%d recovery attempts with no engine armed", r.Attempts)
	}
	return nil
}

// reportDigest hashes the campaign report's canonical JSON: encoded,
// decoded with numbers kept verbatim, and re-encoded, so map order and
// struct-vs-decoded-struct differences cannot move the digest.
func reportDigest(rep *experiments.CampaignReport) (string, error) {
	raw, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(canon), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}
