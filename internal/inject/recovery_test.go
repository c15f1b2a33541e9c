package inject

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xentry/internal/core"
	"xentry/internal/recovery"
	"xentry/internal/sim"
	"xentry/internal/workload"
)

// recoveryCampaign is the microreboot-armed variant of the differential
// campaign. Its golden stream is detection-free (no model), so pruning
// stays live alongside the engine.
func recoveryCampaign() CampaignConfig {
	cfg := diffCampaign()
	cfg.Recovery = "microreboot"
	return cfg
}

// TestRecoveryOffBitIdentity proves arming no engine changes nothing: a
// campaign with Recovery "off" (and "none") is bit-identical to one that
// never heard of the field.
func TestRecoveryOffBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	base, err := RunCampaign(diffCampaign())
	if err != nil {
		t.Fatal(err)
	}
	base.Normalize()
	for _, name := range []string{"off", "none"} {
		cfg := diffCampaign()
		cfg.Recovery = name
		got, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.Normalize()
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Recovery=%q diverged from the plain campaign", name)
		}
	}
}

// TestMicrorebootCampaignDeterministic is the determinism obligation:
// same seed + same plans ⇒ identical RecoveryOutcome aggregates, under the
// concurrent worker pool (the -race verify pass runs this too).
func TestMicrorebootCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	a, err := RunCampaign(recoveryCampaign())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(recoveryCampaign())
	if err != nil {
		t.Fatal(err)
	}
	a.Normalize()
	b.Normalize()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("microreboot campaign not deterministic across runs")
	}
}

// TestRunOneMicrorebootDeterministic checks per-run determinism at the
// Outcome level, including the recovery record, without pool concurrency.
func TestRunOneMicrorebootDeterministic(t *testing.T) {
	cfg := recoveryCampaign()
	br, err := PrepareBenchmark(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := br.Runner.NewWorker()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		plan := br.Runner.RandomPlan(rng)
		a, err := w.RunOne(plan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.RunOne(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plan %v: outcomes differ:\n%+v\n%+v", plan, a, b)
		}
	}
}

// TestMicrorebootClassMix is the acceptance criterion: a microreboot
// campaign attempts recoveries and the outcome taxonomy is populated at
// both ends — some runs recover fully, some fail outright — with the
// class counts partitioning the attempts.
func TestMicrorebootClassMix(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	// Salvage-validation aborts (the failed class) run at a few percent of
	// attempts, so the mix assertion needs a larger sample than the
	// differential campaigns use.
	cfg := recoveryCampaign()
	cfg.InjectionsPerBenchmark = 200
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Total.Recovery
	if rs.Attempts == 0 {
		t.Fatal("microreboot campaign attempted no recoveries")
	}
	if rs.ByClass[recovery.ClassFull] == 0 {
		t.Errorf("no full recoveries across %d attempts", rs.Attempts)
	}
	if rs.ByClass[recovery.ClassFailed] == 0 {
		t.Errorf("no failed recoveries across %d attempts", rs.Attempts)
	}
	classSum := 0
	for _, n := range rs.ByClass {
		classSum += n
	}
	if classSum != rs.Attempts {
		t.Errorf("class counts sum to %d, want %d attempts", classSum, rs.Attempts)
	}
	if rs.ByStrategy[recovery.StrategyMicroreboot] != rs.Attempts {
		t.Errorf("strategy split %v does not attribute all %d attempts to microreboot",
			rs.ByStrategy, rs.Attempts)
	}
	techSum := 0
	for _, ts := range rs.ByTechnique {
		techSum += ts.Attempts
		if len(ts.Latencies) != ts.Attempts {
			t.Errorf("technique stats carry %d latencies for %d attempts",
				len(ts.Latencies), ts.Attempts)
		}
	}
	if techSum != rs.Attempts {
		t.Errorf("technique counts sum to %d, want %d attempts", techSum, rs.Attempts)
	}
	// The campaign's golden stream is detection-free (no model), so the
	// engine keeps pruning live: a pruned run provably never consults it.
	if p := res.Total.Prune; p.Dead == 0 || p.Converged == 0 {
		t.Errorf("pruning did not fire under the recovery engine: %+v", p)
	}
}

// TestMicrorebootPruneBitIdentical is the engine-armed prune differential:
// with a detection-free golden stream, the pruned microreboot campaign —
// including its recovery attempt/class aggregates — must be bit-identical
// to the -prune=off run.
func TestMicrorebootPruneBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	pruned, err := RunCampaign(recoveryCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Total.Recovery.Attempts == 0 {
		t.Fatal("pruned microreboot campaign attempted no recoveries")
	}
	cfg := recoveryCampaign()
	cfg.DisablePrune = true
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned.Normalize()
	full.Normalize()
	stripPrune(pruned)
	stripPrune(full)
	if !reflect.DeepEqual(pruned, full) {
		t.Fatalf("engine-armed pruning diverges\npruned: %+v\nfull:   %+v",
			pruned.Total, full.Total)
	}
}

// TestMicrorebootModelPruneBitIdentical pins the second stage of the
// engine-armed pruning gate: with a trained model installed, false
// positives surface in the reference replay (the golden stream is
// recorded detector-free), and a folded suffix would skip the recovery
// attempt a live run performs on one — recovery aggregates drifted before
// buildCheckpoints learned to drop the prune tables on any reference
// detection. Pruned and -prune=off runs must stay bit-identical,
// recovery attempts included.
func TestMicrorebootModelPruneBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	cfg := recoveryCampaign()
	cfg.Model = testModel(t)
	pruned, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Total.Recovery.Attempts == 0 {
		t.Fatal("model-armed microreboot campaign attempted no recoveries")
	}
	cfg = recoveryCampaign()
	cfg.Model = testModel(t)
	cfg.DisablePrune = true
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned.Normalize()
	full.Normalize()
	stripPrune(pruned)
	stripPrune(full)
	if !reflect.DeepEqual(pruned, full) {
		t.Fatalf("engine-armed pruning diverges under a model\npruned: %+v\nfull:   %+v",
			pruned.Total.Recovery, full.Total.Recovery)
	}
}

// TestReferenceDetectionDropsPruneTables: under an armed engine, the
// first detection in the reference replay turns pruning off and leaves the
// runner with no pruning tables. The shape is the golden
// campaign-policy-smp4's: 4 vCPUs, every site class, the recovery policy,
// and a model trained on one vCPU, which flags fault-free SMP activations
// the detector-free golden stream cannot show.
func TestReferenceDetectionDropsPruneTables(t *testing.T) {
	cfg := DefaultCampaign(8, 11)
	cfg.Benchmarks = []string{"postmark"}
	cfg.Activations = 60
	cfg.VCPUs = 4
	cfg.Targets = TargetNames()
	cfg.Recovery = "policy"
	cfg.Model = testModel(t)
	br, err := PrepareBenchmark(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := br.Runner
	if !r.pruneEnabled() {
		t.Fatal("the golden stream carries a detection; the test needs the reference replay to find the first")
	}
	first := -1
	for i, rv := range r.refs {
		if rv.technique != core.TechNone {
			first = i
			break
		}
	}
	if first < 0 || first == len(r.refs)-1 {
		t.Fatalf("first reference detection at activation %d; want one before the last", first)
	}
	if r.fps != nil || r.traces != nil || r.ptAccs != nil || r.refHV != nil {
		t.Errorf("runner keeps pruning tables after reference detection at activation %d", first)
	}
	if o, ok := r.prunePlan(br.Plans[0]); ok {
		t.Errorf("plan %v pruned (%v) with pruning off", br.Plans[0], o.Pruned)
	}
}

// TestRecoveryMutualExclusion: the Section VI study switch and the engine
// cannot both be armed.
func TestRecoveryMutualExclusion(t *testing.T) {
	cfg := recoveryCampaign()
	cfg.Recover = true
	cfg.Benchmarks = workload.Names()[:1]
	cfg.InjectionsPerBenchmark = 1
	if _, err := RunCampaign(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("want mutual-exclusion error, got %v", err)
	}
}

// TestUnknownRecoveryStrategyRejected: an unknown strategy name surfaces
// as an error naming the accepted set.
func TestUnknownRecoveryStrategyRejected(t *testing.T) {
	cfg := diffCampaign()
	cfg.Recovery = "reboot-harder"
	cfg.Benchmarks = workload.Names()[:1]
	cfg.InjectionsPerBenchmark = 1
	if _, err := RunCampaign(cfg); err == nil || !strings.Contains(err.Error(), "microreboot") {
		t.Fatalf("want unknown-strategy error naming the accepted set, got %v", err)
	}
}

// TestRecoveryRestoredRunsConverge: a run that rolls a detected
// activation back to its VM-exit snapshot — the Section VI mechanism or
// the engine's restore strategy — and re-executes it cleanly is in the
// reference state again at the next activation boundary, so convergence
// pruning folds its suffix. Per plan, the pruned outcome must equal the
// -prune=off outcome in every field but Pruned, and at least one
// recovered run must have converged. On the 4-vCPU machine the idle
// CPUs' registers are part of that state, and a restore must keep them.
func TestRecoveryRestoredRunsConverge(t *testing.T) {
	restore := func(r *Runner) { r.Recovery = recovery.NewEngine(recovery.StrategyRestore) }
	for _, tc := range []struct {
		name  string
		vcpus int
		arm   func(r *Runner)
	}{
		{"sec6", 1, func(r *Runner) { r.Recover = true }},
		{"restore", 1, restore},
		{"restore-smp4", 4, restore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig("postmark", 21)
			cfg.VCPUs = tc.vcpus
			newRunner := func() *Runner {
				r, err := NewRunner(cfg, 60, nil)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			pruned, full := newRunner(), newRunner()
			tc.arm(pruned)
			tc.arm(full)
			full.DisablePrune = true
			pw, fw := pruned.NewWorker(), full.NewWorker()
			rng := rand.New(rand.NewSource(29))
			var recovered, converged int
			for i := 0; i < 300; i++ {
				plan := pruned.RandomPlan(rng)
				po, err := pw.RunOne(plan)
				if err != nil {
					t.Fatal(err)
				}
				fo, err := fw.RunOne(plan)
				if err != nil {
					t.Fatal(err)
				}
				if fo.Pruned != PruneNone {
					t.Fatalf("disabled runner pruned plan %v: %v", plan, fo.Pruned)
				}
				if po.Recovered || po.Recovery.Attempted {
					recovered++
					if po.Pruned == PruneConverged {
						converged++
					}
				}
				po.Pruned = PruneNone
				if !reflect.DeepEqual(po, fo) {
					t.Fatalf("plan %v diverges:\npruned %+v\nfull   %+v", plan, po, fo)
				}
			}
			if converged == 0 {
				t.Fatalf("none of %d recovered runs converged", recovered)
			}
			t.Logf("%d of %d recovered runs converged", converged, recovered)
		})
	}
}
