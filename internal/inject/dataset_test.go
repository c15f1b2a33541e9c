package inject

import (
	"testing"

	"xentry/internal/isa"
	"xentry/internal/workload"
)

// TestDatasetEarlyStopMatchesFullRun is the differential test of the
// dataset path's early stop: for every plan of a small two-benchmark
// dataset config, the run that stops at the injected activation's VM entry
// must report the same signature fields as a full RunOne of the same plan
// on an identically configured runner.
func TestDatasetEarlyStopMatchesFullRun(t *testing.T) {
	cfg := DatasetConfig{
		Benchmarks:             []string{"postmark", "mcf"},
		Mode:                   workload.PV,
		Activations:            60,
		InjectionsPerBenchmark: 200,
		Seed:                   11,
	}
	var rip, rflags, dead, live, stopped int
	for bi := range cfg.Benchmarks {
		dr, plans, err := cfg.prepare(bi)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewRunner(dr.Cfg, dr.Activations, nil)
		if err != nil {
			t.Fatal(err)
		}
		dw, fw := dr.NewWorker(), full.NewWorker()
		for _, plan := range plans {
			do, err := dw.RunOne(plan)
			if err != nil {
				t.Fatal(err)
			}
			fo, err := fw.RunOne(plan)
			if err != nil {
				t.Fatal(err)
			}
			if do.HasFeatures != fo.HasFeatures || do.FeaturesDiffer != fo.FeaturesDiffer ||
				do.Features != fo.Features {
				t.Fatalf("%s plan %v: dataset signature (%v, %v, %v), full run (%v, %v, %v)",
					cfg.Benchmarks[bi], plan, do.HasFeatures, do.FeaturesDiffer, do.Features,
					fo.HasFeatures, fo.FeaturesDiffer, fo.Features)
			}
			switch plan.Reg {
			case isa.RIP:
				rip++
			case isa.RFLAGS:
				rflags++
			}
			if do.Pruned == PruneDead {
				dead++
			} else {
				live++
			}
			// A fault that crossed VM entry and manifested later is
			// classified only by a run that went past the injected
			// activation.
			if fo.HasFeatures && fo.LongLatency && !do.LongLatency {
				stopped++
			}
		}
	}
	t.Logf("rip=%d rflags=%d dead=%d live=%d stopped-early=%d", rip, rflags, dead, live, stopped)
	if rip == 0 || rflags == 0 || dead == 0 || live == 0 || stopped == 0 {
		t.Fatal("population too narrow")
	}
}

// TestCampaignRunnerRunsToFate: the early stop belongs to dataset runners
// alone. A PrepareBenchmark runner classifies faults that manifest after
// the injected activation's VM entry, which a stopped run never sees.
func TestCampaignRunnerRunsToFate(t *testing.T) {
	cfg := DefaultCampaign(200, 11)
	cfg.Benchmarks = []string{"postmark"}
	cfg.Activations = 60
	br, err := PrepareBenchmark(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if br.Runner.featuresOnly {
		t.Fatal("PrepareBenchmark runner stops at the injected VM entry")
	}
	w := br.Runner.NewWorker()
	for _, plan := range br.Plans {
		o, err := w.RunOne(plan)
		if err != nil {
			t.Fatal(err)
		}
		if o.HasFeatures && o.LongLatency {
			return
		}
	}
	t.Fatal("no plan manifested after its injected activation's VM entry")
}

// TestCollectDatasetPrepareError: a second benchmark that cannot be
// prepared fails the collection with the preparation's own error.
func TestCollectDatasetPrepareError(t *testing.T) {
	cfg := DatasetConfig{
		Benchmarks:             []string{"postmark", "no-such-benchmark"},
		Mode:                   workload.PV,
		FaultFreeRuns:          2,
		Activations:            40,
		InjectionsPerBenchmark: 30,
		Seed:                   5,
		Workers:                2,
	}
	_, _, want := cfg.prepare(1)
	if want == nil {
		t.Fatal("an unknown benchmark prepared")
	}
	if _, err := CollectDataset(cfg); err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
}
