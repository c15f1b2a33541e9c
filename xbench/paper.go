package main

import (
	"fmt"
	"strings"

	"xentry/internal/experiments"
	"xentry/internal/inject"
)

// runPaperReport runs xentry-report's exact call sequence at DefaultScale
// and digests its text (the timing line excluded). Set-up is Fig. 3 plus
// the §III-B training, the model every later figure consumes. Traced, the
// training and both campaign-shaped studies (Figs. 8–10 and the recovery
// classification) are decomposed into their primitives; the other
// experiments stay single spans.
func runPaperReport(e *env, clk *clock, tr *tracer) (*output, error) {
	sc := experiments.DefaultScale()
	if e.opts.quick {
		sc = experiments.QuickScale()
	}
	sc.Seed = e.opts.seed
	root := tr.begin("iteration", 0, -1)
	defer tr.finish(root)
	var b strings.Builder
	b.WriteString("Xentry reproduction report\n==========================\n\n")

	var fig3 *experiments.Fig3Result
	if err := tr.do("experiments.fig3", 0, root, func() (err error) { fig3, err = experiments.Fig3(sc); return }); err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, fig3.Render())
	trained, err := train(sc, tr, 0, root)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, trained.Render())
	fmt.Fprintln(&b, "Fig. 6 — learned tree (random tree rules, truncated to 40 lines):")
	printHead(&b, trained.RandomTree.String(), 40)
	fmt.Fprintln(&b)
	clk.setupDone()
	model := trained.Best()

	var fig7 *experiments.Fig7Result
	if err := tr.do("experiments.fig7", 0, root, func() (err error) { fig7, err = experiments.Fig7(sc, model); return }); err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, fig7.Render())

	cfg, err := experiments.CampaignConfigFor(sc, model, 0)
	if err != nil {
		return nil, err
	}
	out := &output{cfg: cfg, samples: trained.TrainSamples + trained.TestSamples}
	camp, err := campaign(cfg, tr, root, out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, experiments.RenderFig8(camp))
	fmt.Fprintln(&b, experiments.RenderFig9(camp))
	fmt.Fprintln(&b, experiments.RenderFig10(camp))
	fmt.Fprintln(&b, experiments.RenderSiteCoverage(camp))
	fmt.Fprintln(&b, experiments.RenderTableII(camp))

	var study *experiments.RecoveryStudy
	if err := tr.do("experiments.recovery_study", 0, root, func() (err error) { study, err = experiments.Recovery(sc, model); return }); err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, study.Render())

	// RecoveryClassification is the campaign config with the microreboot
	// engine armed; traced, that campaign is decomposed like Figs. 8–10.
	rsc := sc
	rsc.Recovery = "microreboot"
	rcfg, err := experiments.CampaignConfigFor(rsc, model, 0)
	if err != nil {
		return nil, err
	}
	var rec *inject.CampaignResult
	if tr == nil {
		rec, err = experiments.RecoveryClassification(sc, model)
	} else {
		var run *campaignRun
		if run, err = tracedCampaign("experiments.recovery_class", rcfg, tr, root, func() {}); err == nil {
			rec = run.res
		}
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, experiments.RenderRecovery(rec))

	var sw *experiments.SweepResult
	if err := tr.do("experiments.sweeps", 0, root, func() (err error) { sw, err = experiments.Sweeps(sc); return }); err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, sw.Render())

	fpr := trained.RandomEval.FalsePositiveRate()
	if fpr <= 0 {
		fpr = 0.007 // the paper's measured rate, as xentry-report uses
	}
	var fig11 *experiments.Fig11Result
	if err := tr.do("experiments.fig11", 0, root, func() (err error) { fig11, err = experiments.Fig11(sc, fpr); return }); err != nil {
		return nil, err
	}
	fmt.Fprintln(&b, fig11.Render())

	checks := []struct {
		res *inject.CampaignResult
		cfg inject.CampaignConfig
	}{{camp, cfg}, {study.Baseline, cfg}, {study.WithRecovery, cfg}, {rec, rcfg}}
	for _, c := range checks {
		if err := checkCampaign(c.res, c.cfg); err != nil {
			return nil, err
		}
		out.injections += c.res.Total.Injections
	}
	if rec.Total.Recovery.Attempts == 0 {
		return nil, fmt.Errorf("recovery classification attempted no recovery")
	}
	out.result, out.prune, out.recovery = camp, camp.Total, rec.Total
	out.digest = digest([]byte(b.String()))
	return out, nil
}

// campaign runs the Figs. 8–10 campaign: RunCampaign untraced, its
// decomposition traced (recording the per-plan outcomes for the probes).
func campaign(cfg inject.CampaignConfig, tr *tracer, parent int32, out *output) (*inject.CampaignResult, error) {
	if tr == nil {
		return inject.RunCampaign(cfg)
	}
	run, err := tracedCampaign("experiments.campaign", cfg, tr, parent, func() {})
	if err != nil {
		return nil, err
	}
	out.outcomes = run.outcomes
	return run.res, nil
}

// printHead writes at most n lines of s, as xentry-report prints the tree.
func printHead(b *strings.Builder, s string, n int) {
	count := 0
	start := 0
	for i := 0; i < len(s) && count < n; i++ {
		if s[i] == '\n' {
			fmt.Fprintln(b, s[start:i])
			start = i + 1
			count++
		}
	}
	if count == n {
		fmt.Fprintln(b, "  ...")
	}
}
