package experiments

import (
	"fmt"
	"strings"

	"xentry/internal/ml"
	"xentry/internal/stats"
)

// The paper's Section III-B ends with: "Due to the space limit, we omit the
// evaluation results and discussions on various features, tree depth, and
// training set size." This file supplies those three studies, plus the
// generative-model baseline the paper argues against (naive Bayes, in the
// spirit of its reference [27]).

// SweepResult bundles the four model studies.
type SweepResult struct {
	// FeatureAblation: coverage/accuracy with each feature removed.
	FeatureAblation []FeatureAblationRow
	// DepthSweep: model quality and classification cost per depth bound.
	DepthSweep []DepthRow
	// SizeSweep: model quality per training-set fraction.
	SizeSweep []SizeRow
	// Baselines: the full-feature random tree (FeatureAblation[0]) vs
	// naive Bayes on the same split.
	BayesEval    ml.Confusion
	BayesTrained bool
}

// FeatureAblationRow is the result of dropping one feature.
type FeatureAblationRow struct {
	Dropped  string // "none" for the full model
	Eval     ml.Confusion
	TreeSize int
}

// DepthRow is the result of one depth bound.
type DepthRow struct {
	MaxDepth    int
	Eval        ml.Confusion
	MeanCompare float64 // mean comparisons per classification
}

// SizeRow is the result of one training-set fraction.
type SizeRow struct {
	Fraction float64
	Samples  int
	Eval     ml.Confusion
}

// Sweeps collects the classifier study's train/test split (DatasetConfigs),
// fits its full-feature random tree, and runs all four studies on them.
func Sweeps(sc Scale) (*SweepResult, error) {
	trainSet, testSet, err := collectDatasets(sc)
	if err != nil {
		return nil, err
	}
	full, err := ml.Train(trainSet, ml.DefaultRandomTree(sc.Seed))
	if err != nil {
		return nil, err
	}
	return sweepsOn(sc, trainSet, testSet, full)
}

// sweepsOn runs the four studies on one split. full is the random tree
// ml.DefaultRandomTree(sc.Seed) fits on trainSet, the classifier study's
// RandomTree: the ablation's "none" row, the depth sweep's row at its
// depth bound and the baseline's tree row evaluate it instead of fitting
// it again.
func sweepsOn(sc Scale, trainSet, testSet ml.Dataset, full *ml.Tree) (*SweepResult, error) {
	// The studies fit some sixteen independent trees; each fit is a job run
	// on sc.Workers goroutines that writes only its own result slot, so the
	// rows come out in the serial order whatever the schedule.
	res := &SweepResult{FeatureAblation: make([]FeatureAblationRow, ml.NumFeatures+1)}
	res.FeatureAblation[0] = FeatureAblationRow{
		Dropped: "none", Eval: ml.Evaluate(full, testSet), TreeSize: full.Size(),
	}
	var jobs []func() error

	// Feature ablation: mask one feature at a time (zeroing it removes its
	// discriminative power without changing the vector shape).
	for f := 0; f < ml.NumFeatures; f++ {
		jobs = append(jobs, func() error {
			tree, err := ml.Train(maskFeature(trainSet, f), ml.DefaultRandomTree(sc.Seed))
			if err != nil {
				return err
			}
			res.FeatureAblation[f+1] = FeatureAblationRow{
				Dropped:  ml.FeatureName(f),
				Eval:     ml.Evaluate(tree, maskFeature(testSet, f)),
				TreeSize: tree.Size(),
			}
			return nil
		})
	}

	// Depth sweep: the random tree under each depth bound.
	depths := []int{2, 4, 6, 8, 12, 16, 24}
	res.DepthSweep = make([]DepthRow, len(depths))
	for i, depth := range depths {
		jobs = append(jobs, func() error {
			cfg, tree := ml.DefaultRandomTree(sc.Seed), full
			if depth != cfg.MaxDepth {
				cfg.MaxDepth = depth
				var err error
				if tree, err = ml.Train(trainSet, cfg); err != nil {
					return err
				}
			}
			var cmp int
			for _, s := range testSet {
				_, c := tree.Classify(s.Features)
				cmp += c
			}
			res.DepthSweep[i] = DepthRow{
				MaxDepth:    depth,
				Eval:        ml.Evaluate(tree, testSet),
				MeanCompare: float64(cmp) / float64(len(testSet)),
			}
			return nil
		})
	}

	// Training-set size sweep (prefix fractions keep class mixing).
	interleaved := interleave(trainSet)
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		n := int(frac * float64(len(trainSet)))
		if n < 10 {
			continue
		}
		i := len(res.SizeSweep)
		res.SizeSweep = append(res.SizeSweep, SizeRow{Fraction: frac, Samples: n})
		jobs = append(jobs, func() error {
			tree, err := ml.Train(interleaved[:n], ml.DefaultRandomTree(sc.Seed))
			if err != nil {
				return err
			}
			res.SizeSweep[i].Eval = ml.Evaluate(tree, testSet)
			return nil
		})
	}

	// Generative baseline.
	jobs = append(jobs, func() error {
		if nb, err := ml.TrainNaiveBayes(trainSet); err == nil {
			res.BayesEval = ml.Evaluate(nb, testSet)
			res.BayesTrained = true
		}
		return nil
	})

	if err := parallel(sc.Workers, len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return nil, err
	}
	return res, nil
}

// maskFeature zeroes feature f in a copy of the dataset.
func maskFeature(d ml.Dataset, f int) ml.Dataset {
	out := make(ml.Dataset, len(d))
	for i, s := range d {
		s.Features[f] = 0
		out[i] = s
	}
	return out
}

// interleave alternates correct and incorrect samples so size-sweep
// prefixes contain both classes.
func interleave(d ml.Dataset) ml.Dataset {
	var correct, incorrect ml.Dataset
	for _, s := range d {
		if s.Correct {
			correct = append(correct, s)
		} else {
			incorrect = append(incorrect, s)
		}
	}
	out := make(ml.Dataset, 0, len(d))
	ci, ii := 0, 0
	for len(out) < len(d) {
		// Keep the original class ratio within every prefix.
		wantIncorrect := len(incorrect) * (len(out) + 1) / len(d)
		if ii < wantIncorrect && ii < len(incorrect) {
			out = append(out, incorrect[ii])
			ii++
		} else if ci < len(correct) {
			out = append(out, correct[ci])
			ci++
		} else {
			out = append(out, incorrect[ii])
			ii++
		}
	}
	return out
}

// Render formats the sweep studies.
func (r *SweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Model studies the paper omitted (§III-B closing remark)\n\n")

	t := stats.NewTable("dropped feature", "accuracy", "coverage", "fpr", "nodes")
	for _, row := range r.FeatureAblation {
		t.AddRow(row.Dropped, stats.Pct(row.Eval.Accuracy()),
			stats.Pct(row.Eval.Coverage()),
			fmt.Sprintf("%.2f%%", 100*row.Eval.FalsePositiveRate()),
			fmt.Sprintf("%d", row.TreeSize))
	}
	b.WriteString("Feature ablation (random tree):\n" + t.String() + "\n")

	t = stats.NewTable("max depth", "accuracy", "coverage", "mean comparisons")
	for _, row := range r.DepthSweep {
		t.AddRow(fmt.Sprintf("%d", row.MaxDepth), stats.Pct(row.Eval.Accuracy()),
			stats.Pct(row.Eval.Coverage()), fmt.Sprintf("%.1f", row.MeanCompare))
	}
	b.WriteString("Tree depth sweep:\n" + t.String() + "\n")

	t = stats.NewTable("training fraction", "samples", "accuracy", "coverage")
	for _, row := range r.SizeSweep {
		t.AddRow(fmt.Sprintf("%.0f%%", 100*row.Fraction),
			fmt.Sprintf("%d", row.Samples), stats.Pct(row.Eval.Accuracy()),
			stats.Pct(row.Eval.Coverage()))
	}
	b.WriteString("Training-set size sweep:\n" + t.String() + "\n")

	t = stats.NewTable("model", "accuracy", "coverage", "fpr")
	tree := r.FeatureAblation[0].Eval
	t.AddRow("random tree", stats.Pct(tree.Accuracy()),
		stats.Pct(tree.Coverage()),
		fmt.Sprintf("%.2f%%", 100*tree.FalsePositiveRate()))
	if r.BayesTrained {
		t.AddRow("naive Bayes (generative)", stats.Pct(r.BayesEval.Accuracy()),
			stats.Pct(r.BayesEval.Coverage()),
			fmt.Sprintf("%.2f%%", 100*r.BayesEval.FalsePositiveRate()))
	}
	b.WriteString("Discriminative vs generative baseline:\n" + t.String())
	return b.String()
}
