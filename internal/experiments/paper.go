package experiments

import (
	"fmt"
	"io"

	"xentry/internal/inject"
)

// WriteReport writes xentry-report's text to w: Fig. 3, the Section III-B
// classifier study with the Fig. 6 tree, Fig. 7, Figs. 8–10, Table II, the
// live recovery study, the microreboot recovery classification, the model
// sweeps and Fig. 11, all at scale sc. Every line is a pure function of
// sc, so the text is byte-identical across runs; the CLI's closing timing
// line is not part of it. progress, when non-nil, is called with a short
// description before each stage.
//
// Each artifact is computed once: the classifier study and the sweeps
// share one train/test split and the study's random tree, and the
// Figs. 8–10 campaign is also the live recovery study's baseline. The
// text equals what the public entry points print on their own (Train,
// Fig7, Campaign, Recovery, RecoveryClassification, Sweeps, Fig11).
func WriteReport(w io.Writer, sc Scale, progress func(stage string)) error {
	note := func(stage string) {
		if progress != nil {
			progress(stage)
		}
	}
	fmt.Fprintln(w, "Xentry reproduction report")
	fmt.Fprintln(w, "==========================")
	fmt.Fprintln(w)

	note("Fig. 3: activation frequency study...")
	fig3, err := Fig3(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, fig3.Render())

	note("Section III-B: classifier training...")
	trainSet, testSet, err := collectDatasets(sc)
	if err != nil {
		return err
	}
	train, err := trainOn(sc, trainSet, testSet)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, train.Render())
	fmt.Fprintln(w, "Fig. 6 — learned tree (random tree rules, truncated to 40 lines):")
	writeHead(w, train.RandomTree.String(), 40)
	fmt.Fprintln(w)
	model := train.Best()

	note("Fig. 7: fault-free overhead...")
	fig7, err := Fig7(sc, model)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, fig7.Render())

	note("Figs. 8-10, Table II: injection campaign...")
	cfg, err := CampaignConfigFor(sc, model, 0)
	if err != nil {
		return err
	}
	camp, err := inject.RunCampaign(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, RenderFig8(camp))
	fmt.Fprintln(w, RenderFig9(camp))
	fmt.Fprintln(w, RenderFig10(camp))
	fmt.Fprintln(w, RenderSiteCoverage(camp))
	fmt.Fprintln(w, RenderTableII(camp))

	note("Section VI (implemented): live recovery study...")
	study, err := RecoveryAgainst(cfg, camp)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, study.Render())

	note("recovery engine: microreboot outcome classification...")
	rec, err := RecoveryClassification(sc, model)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, RenderRecovery(rec))

	note("model sweeps (features / depth / training size / naive Bayes)...")
	sw, err := sweepsOn(sc, trainSet, testSet, train.RandomTree)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, sw.Render())

	note("Fig. 11: recovery overhead...")
	fpr := train.RandomEval.FalsePositiveRate()
	if fpr <= 0 {
		fpr = 0.007 // the paper's measured rate
	}
	fig11, err := Fig11(sc, fpr)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, fig11.Render())
	return nil
}

// writeHead writes at most n lines of s, then "  ..." if s was cut.
func writeHead(w io.Writer, s string, n int) {
	count := 0
	start := 0
	for i := 0; i < len(s) && count < n; i++ {
		if s[i] == '\n' {
			fmt.Fprintln(w, s[start:i])
			start = i + 1
			count++
		}
	}
	if count == n {
		fmt.Fprintln(w, "  ...")
	}
}
