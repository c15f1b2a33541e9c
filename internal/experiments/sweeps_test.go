package experiments

import "testing"

func TestRecoveryStudyQuick(t *testing.T) {
	sc := QuickScale()
	train, err := Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	study, err := Recovery(sc, train.Best())
	if err != nil {
		t.Fatal(err)
	}
	bt, wt := study.Baseline.Total, study.WithRecovery.Total
	if wt.Recovered == 0 {
		t.Fatal("no recoveries triggered")
	}
	// Recovery must strictly reduce manifested failures.
	if wt.Manifested >= bt.Manifested {
		t.Errorf("recovery did not reduce failures: %d vs %d", wt.Manifested, bt.Manifested)
	}
	// Most triggered recoveries succeed (transient faults re-execute cleanly).
	if study.SuccessRate() < 0.7 {
		t.Errorf("recovery success rate %.2f too low", study.SuccessRate())
	}
	if study.Render() == "" {
		t.Error("empty render")
	}
}

func TestSweepsQuick(t *testing.T) {
	res, err := Sweeps(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FeatureAblation) != 6 { // none + 5 features
		t.Fatalf("ablation rows = %d", len(res.FeatureAblation))
	}
	if len(res.DepthSweep) == 0 || len(res.SizeSweep) == 0 {
		t.Fatal("empty sweeps")
	}
	// Deeper trees must not classify with fewer comparisons than depth-2.
	if res.DepthSweep[0].MeanCompare > res.DepthSweep[len(res.DepthSweep)-1].MeanCompare+1 {
		t.Errorf("comparison costs inverted: %v", res.DepthSweep)
	}
	if !res.BayesTrained {
		t.Error("naive Bayes baseline not trained")
	}
	// The discriminative tree matches or beats the generative baseline on
	// balanced accuracy of the incorrect class.
	if tree := res.FeatureAblation[0].Eval; tree.Coverage() < res.BayesEval.Coverage()-0.05 {
		t.Errorf("tree coverage %.3f well below bayes %.3f",
			tree.Coverage(), res.BayesEval.Coverage())
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}
