package inject

import (
	"math/rand"
	"sync"
	"testing"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/hv"
	"xentry/internal/ml"
	"xentry/internal/workload"
)

// diffModel trains a small transition model once per test binary, so the
// equivalence matrix and the recovery tests exercise the vm-transition
// classify path and the false positives it raises.
var diffModel = sync.OnceValues(func() (*ml.Tree, error) {
	ds, err := CollectDataset(DatasetConfig{
		Benchmarks:             []string{"postmark"},
		Mode:                   workload.PV,
		FaultFreeRuns:          2,
		Activations:            60,
		InjectionsPerBenchmark: 120,
		Seed:                   3,
	})
	if err != nil {
		return nil, err
	}
	return ml.Train(ds, ml.DefaultDecisionTree())
})

func testModel(t *testing.T) *ml.Tree {
	t.Helper()
	tree, err := diffModel()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRecoveredDetectionLatencyRecorded is the regression test for the
// seed bug where recovered detections never set Outcome.Latency: the
// recovered branches of the fold left the field zero, so Tally.Latencies
// collected a spike of zeros whenever recovery was on. Recovered
// detections must now carry the same latency accounting as unrecovered
// ones.
func TestRecoveredDetectionLatencyRecorded(t *testing.T) {
	r := testRunner(t, "postmark", testModel(t))
	r.Recover = true
	rng := rand.New(rand.NewSource(41))
	recovered, withLatency := 0, 0
	for i := 0; i < 200; i++ {
		o, err := r.RunOne(r.RandomPlan(rng))
		if err != nil {
			t.Fatal(err)
		}
		if !o.Recovered || o.Detected == core.TechNone {
			continue
		}
		recovered++
		if o.DetectedAt < 0 {
			t.Errorf("recovered detection without DetectedAt: %+v", o)
		}
		if o.Latency > 0 {
			withLatency++
		}
	}
	if recovered == 0 {
		t.Fatal("no recovered detections exercised — enlarge the plan sample")
	}
	if withLatency == 0 {
		t.Errorf("all %d recovered detections carry zero latency — the recovered "+
			"branches are not recording it", recovered)
	}
}

// testSigTech and the golden-signature detector are a plugin registered
// entirely outside internal/core and internal/detect's builtins: an exact
// golden-signature membership check (Checkbochs-flavoured, stricter than
// the trained tree). The campaign below proves its verdicts flow into the
// tallies with no changes to the aggregation layers.
var testSigTech = detect.RegisterTechnique("test-golden-sig")

type sigSetDetector struct {
	detect.Base
	seen map[[ml.NumFeatures]uint64]bool
}

func (d *sigSetDetector) Name() string         { return "test-golden-sig" }
func (d *sigSetDetector) NeedsSignature() bool { return true }

func (d *sigSetDetector) ObserveGolden(_ hv.ExitReason, sig [ml.NumFeatures]uint64) {
	d.seen[sig] = true
}

func (d *sigSetDetector) OnVMEntry(ev *detect.Event) detect.Verdict {
	// Uncalibrated (the golden run itself) or no signature: stay silent.
	if len(d.seen) == 0 || !ev.HasSignature || d.seen[ev.Signature] {
		return detect.Verdict{}
	}
	return detect.Verdict{Technique: testSigTech, Detail: "signature outside golden set"}
}

func newSigSetDetector() detect.Detector {
	return &sigSetDetector{seen: map[[ml.NumFeatures]uint64]bool{}}
}

// TestPluginDetectorTalliesUnderItsTechnique runs a campaign with the
// plugin installed and no transition model: every signature-diverging
// manifested fault the builtins miss should land under the plugin's
// registered technique in DetectedBy and Latencies — map keys the tally
// code never heard of.
func TestPluginDetectorTalliesUnderItsTechnique(t *testing.T) {
	cfg := CampaignConfig{
		Benchmarks:             []string{"postmark", "mcf"},
		Mode:                   workload.PV,
		InjectionsPerBenchmark: 60,
		Activations:            60,
		Seed:                   11,
		Workers:                2,
		Detection:              core.FullDetection(),
		Detectors:              []detect.Factory{newSigSetDetector},
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Total.DetectedBy[testSigTech]
	if n == 0 {
		t.Fatalf("plugin technique absent from tallies: %v", res.Total.DetectedBy)
	}
	if got := len(res.Total.Latencies[testSigTech]); got != n {
		t.Errorf("plugin latencies %d != detections %d", got, n)
	}

	// Detectors only change attribution, never execution (recovery is
	// off): rerunning without the plugin must reproduce the exact same
	// fault population — the plugin's detections come out of the
	// undetected pool and out of slower techniques' first-wins claims,
	// not out of thin air.
	cfg.Detectors = nil
	base, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Total.Injections != res.Total.Injections ||
		base.Total.Manifested != res.Total.Manifested ||
		base.Total.Benign != res.Total.Benign ||
		base.Total.NonActivated != res.Total.NonActivated {
		t.Errorf("plugin changed the fault population:\nwith:    %+v\nwithout: %+v",
			res.Total, base.Total)
	}
	if res.Total.Undetected > base.Total.Undetected {
		t.Errorf("undetected grew with the plugin installed: %d > %d",
			res.Total.Undetected, base.Total.Undetected)
	}
	detected := 0
	for _, c := range res.Total.DetectedBy {
		detected += c
	}
	if detected+res.Total.Undetected != res.Total.Manifested {
		t.Errorf("accounting broke with plugin: detected %d + undetected %d != manifested %d",
			detected, res.Total.Undetected, res.Total.Manifested)
	}
}
