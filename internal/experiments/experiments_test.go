package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"xentry/internal/core"
	"xentry/internal/workload"
)

// The experiment tests run at QuickScale and validate the *shape* each
// figure must reproduce, not absolute values.

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 6 benchmarks × 2 modes
		t.Fatalf("rows = %d", len(res.Rows))
	}
	med := map[string]map[workload.Mode]float64{}
	for _, row := range res.Rows {
		if med[row.Benchmark] == nil {
			med[row.Benchmark] = map[workload.Mode]float64{}
		}
		med[row.Benchmark][row.Mode] = row.Summary.Median
	}
	for bench, by := range med {
		// PV activates the hypervisor more than HVM (the Fig. 3 claim).
		if by[workload.PV] <= by[workload.HVM] {
			t.Errorf("%s: PV median %.0f <= HVM %.0f", bench, by[workload.PV], by[workload.HVM])
		}
	}
	if s := res.Render(); !strings.Contains(s, "Fig. 3") || !strings.Contains(s, "freqmine") {
		t.Error("render incomplete")
	}
}

func TestTrainShape(t *testing.T) {
	res, err := Train(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainIncorrect == 0 || res.TestIncorrect == 0 {
		t.Fatalf("no incorrect samples: train=%d test=%d", res.TrainIncorrect, res.TestIncorrect)
	}
	// Both models must clearly beat chance; accuracy should be high
	// because correct samples dominate and are learnable.
	if res.DecisionTreeEval.Accuracy() < 0.9 || res.RandomEval.Accuracy() < 0.9 {
		t.Errorf("accuracies too low: dt=%v rt=%v", res.DecisionTreeEval, res.RandomEval)
	}
	// False positive rate stays small (the paper's 0.7%).
	if res.RandomEval.FalsePositiveRate() > 0.05 {
		t.Errorf("random tree FPR %.3f too high", res.RandomEval.FalsePositiveRate())
	}
	if res.Best() == nil {
		t.Fatal("no best model")
	}
	if s := res.Render(); !strings.Contains(s, "random tree") {
		t.Error("render incomplete")
	}
	// The Fig. 6 tree is printable.
	if s := res.Best().String(); !strings.Contains(s, "if ") {
		t.Error("tree not renderable")
	}
}

func TestFig7Shape(t *testing.T) {
	sc := QuickScale()
	train, err := Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig7(sc, train.Best())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var postmark, bzip2 Fig7Row
	for _, row := range res.Rows {
		// Overheads are positive and small; runtime-only costs less than
		// full detection.
		if row.FullAvg <= 0 || row.FullAvg > 0.25 {
			t.Errorf("%s full overhead %.2f%% implausible", row.Benchmark, 100*row.FullAvg)
		}
		if row.RuntimeAvg >= row.FullAvg {
			t.Errorf("%s runtime-only %.3f%% >= full %.3f%%",
				row.Benchmark, 100*row.RuntimeAvg, 100*row.FullAvg)
		}
		switch row.Benchmark {
		case "postmark":
			postmark = row
		case "bzip2":
			bzip2 = row
		}
	}
	// Postmark is the most expensive, bzip2 among the cheapest (Fig. 7).
	if postmark.FullAvg <= bzip2.FullAvg {
		t.Errorf("postmark %.3f%% should exceed bzip2 %.3f%%",
			100*postmark.FullAvg, 100*bzip2.FullAvg)
	}
	if s := res.Render(); !strings.Contains(s, "Fig. 7") {
		t.Error("render incomplete")
	}
}

func TestCampaignFiguresShape(t *testing.T) {
	sc := QuickScale()
	train, err := Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Campaign(sc, train.Best())
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Manifested == 0 {
		t.Fatal("campaign produced no manifested faults")
	}
	// Fig. 8 shape: high coverage, hardware exceptions dominant.
	if cov := tot.Coverage(); cov < 0.80 {
		t.Errorf("coverage %.1f%% too low", 100*cov)
	}
	hwShare := tot.TechniqueShare(core.TechHWException)
	if hwShare < 0.5 {
		t.Errorf("hw-exception share %.1f%% should dominate", 100*hwShare)
	}
	for _, render := range []string{
		RenderFig8(res), RenderFig9(res), RenderFig10(res), RenderTableII(res),
	} {
		if render == "" {
			t.Error("empty render")
		}
	}
	if !strings.Contains(RenderTableII(res), "time-values") {
		t.Error("Table II missing cause rows")
	}
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11(QuickScale(), 0.007)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 6 {
		t.Fatalf("estimates = %d", len(res.Estimates))
	}
	byName := map[string]float64{}
	for _, e := range res.Estimates {
		if e.Overhead <= 0 || e.Overhead > 0.2 {
			t.Errorf("%s overhead %.2f%% implausible", e.Benchmark, 100*e.Overhead)
		}
		byName[e.Benchmark] = e.Overhead
	}
	// Postmark costs the most, mcf/bzip2 the least (Fig. 11 shape).
	if byName["postmark"] <= byName["bzip2"] {
		t.Errorf("postmark %.3f%% should exceed bzip2 %.3f%%",
			100*byName["postmark"], 100*byName["bzip2"])
	}
	if s := res.Render(); !strings.Contains(s, "Fig. 11") {
		t.Error("render incomplete")
	}
}

// TestFig7Fig11IndependentOfWorkers: the parallel Fig. 7 and Fig. 11
// studies fold their machines in a fixed order, so one worker and several
// produce identical results, down to every float.
func TestFig7Fig11IndependentOfWorkers(t *testing.T) {
	sc := QuickScale()
	sc.OverheadRuns = 2
	train, err := Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	var fig7 []*Fig7Result
	var fig11 []*Fig11Result
	for _, workers := range []int{1, 3} {
		sc.Workers = workers
		f7, err := Fig7(sc, train.Best())
		if err != nil {
			t.Fatal(err)
		}
		f11, err := Fig11(sc, 0.007)
		if err != nil {
			t.Fatal(err)
		}
		fig7, fig11 = append(fig7, f7), append(fig11, f11)
	}
	if !reflect.DeepEqual(fig7[0], fig7[1]) {
		t.Errorf("Fig. 7 differs between 1 and 3 workers:\n%+v\n%+v", fig7[0], fig7[1])
	}
	if !reflect.DeepEqual(fig11[0], fig11[1]) {
		t.Errorf("Fig. 11 differs between 1 and 3 workers:\n%+v\n%+v", fig11[0], fig11[1])
	}
}

// TestParallelReturnsLowestFailingIndex: parallel runs every index once
// and reports the error a loop in index order would have stopped at.
func TestParallelReturnsLowestFailingIndex(t *testing.T) {
	ran := make([]int, 40)
	err := parallel(4, len(ran), func(i int) error {
		ran[i]++
		if i == 17 || i == 31 {
			return errors.New(strings.Repeat("x", i))
		}
		return nil
	})
	if err == nil || len(err.Error()) != 17 {
		t.Fatalf("err = %v, want index 17's", err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
	if err := parallel(0, 0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatal(err)
	}
}
