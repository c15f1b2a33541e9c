package experiments

import (
	"fmt"
	"strings"

	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/stats"
)

// RecoveryStudy exercises the paper's Section VI recovery sketch *live*
// (the paper leaves the implementation as future work): every injected
// machine snapshots the critical hypervisor state at VM exit, and any
// positive detection restores the snapshot and re-executes the activation.
// The study measures how often that turns a would-be failure into a clean
// run.
type RecoveryStudy struct {
	// Baseline is the campaign without recovery; WithRecovery is the same
	// plans with recovery enabled.
	Baseline, WithRecovery *inject.CampaignResult
}

// Recovery runs the paired campaigns over the report's campaign
// (CampaignConfigFor).
func Recovery(sc Scale, model *ml.Tree) (*RecoveryStudy, error) {
	cfg, err := CampaignConfigFor(sc, model, 0)
	if err != nil {
		return nil, err
	}
	baseline, err := inject.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return RecoveryAgainst(cfg, baseline)
}

// RecoveryAgainst completes the study around a campaign that has already
// run: baseline is cfg's result, and the recovery arm reruns cfg's plans
// with Section VI recovery on.
func RecoveryAgainst(cfg inject.CampaignConfig, baseline *inject.CampaignResult) (*RecoveryStudy, error) {
	cfg.Recover = true
	recovered, err := inject.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return &RecoveryStudy{Baseline: baseline, WithRecovery: recovered}, nil
}

// FailureRate is the fraction of injections ending in any failure or
// corruption.
func failureRate(t *inject.Tally) float64 {
	if t.Injections == 0 {
		return 0
	}
	return float64(t.Manifested) / float64(t.Injections)
}

// SuccessRate is the fraction of triggered recoveries that ended clean.
func (r *RecoveryStudy) SuccessRate() float64 {
	t := r.WithRecovery.Total
	if t.Recovered == 0 {
		return 0
	}
	return float64(t.RecoveredClean) / float64(t.Recovered)
}

// Render formats the study.
func (r *RecoveryStudy) Render() string {
	var b strings.Builder
	b.WriteString("Section VI (implemented) — live recovery: snapshot at VM exit,\n")
	b.WriteString("restore + re-execute on positive detection\n")
	t := stats.NewTable("configuration", "manifested failures", "failure rate", "recoveries", "recovered clean")
	bt, wt := r.Baseline.Total, r.WithRecovery.Total
	t.AddRow("detection only", fmt.Sprintf("%d", bt.Manifested),
		stats.Pct(failureRate(bt)), "-", "-")
	t.AddRow("detection + recovery", fmt.Sprintf("%d", wt.Manifested),
		stats.Pct(failureRate(wt)),
		fmt.Sprintf("%d", wt.Recovered), fmt.Sprintf("%d", wt.RecoveredClean))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "recovery success rate: %s of triggered recoveries end clean\n",
		stats.Pct(r.SuccessRate()))
	if bt.Manifested > 0 {
		reduction := 1 - float64(wt.Manifested)/float64(bt.Manifested)
		fmt.Fprintf(&b, "failure reduction: %s of would-be failures eliminated\n",
			stats.Pct(reduction))
	}
	return b.String()
}
