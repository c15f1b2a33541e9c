package experiments

import (
	"strings"
	"testing"

	"xentry/internal/core"
	"xentry/internal/inject"
)

// siteResult fabricates a campaign aggregate with per-site rows.
func siteResult() *inject.CampaignResult {
	tl := inject.NewTally()
	add := func(site inject.Site, vcpu int, manifested, detected bool) {
		o := inject.Outcome{
			Plan:       inject.Plan{Site: site, VCPU: vcpu},
			Activated:  true,
			Manifested: manifested,
		}
		if detected {
			o.Detected = core.TechHWException
		}
		tl.Add(o)
	}
	add(inject.SiteGPR, 0, true, true)
	add(inject.SiteGPR, 1, true, false)
	add(inject.SiteTLB, 0, false, false)
	add(inject.SitePMU, 3, true, true)
	return &inject.CampaignResult{
		Total:        tl,
		PerBenchmark: map[string]*inject.Tally{"mcf": tl.Clone()},
	}
}

// TestReportPerSiteRows: the machine-readable report carries one row per
// injected site class, in taxonomy order, with the per-class coverage the
// rendered figure shows.
func TestReportPerSiteRows(t *testing.T) {
	rep := NewCampaignReport(siteResult(), []string{"mcf"})
	if len(rep.PerSite) != 3 {
		t.Fatalf("PerSite rows = %+v, want gpr/dtlb/pmu", rep.PerSite)
	}
	byName := map[string]SiteReport{}
	for _, row := range rep.PerSite {
		byName[row.Site] = row
	}
	gpr := byName["gpr"]
	if gpr.Injections != 2 || gpr.Manifested != 2 || gpr.Detected != 1 || gpr.Coverage != 0.5 {
		t.Errorf("gpr row = %+v", gpr)
	}
	if tlb := byName["dtlb"]; tlb.Injections != 1 || tlb.Manifested != 0 || tlb.Coverage != 0 {
		t.Errorf("dtlb row = %+v", tlb)
	}
	if pmu := byName["pmu"]; pmu.Injections != 1 || pmu.Detected != 1 || pmu.Coverage != 1 {
		t.Errorf("pmu row = %+v", pmu)
	}
	if rep.PerSite[0].Site != "gpr" || rep.PerSite[1].Site != "dtlb" {
		t.Errorf("PerSite rows out of taxonomy order: %+v", rep.PerSite)
	}
}

// TestRenderSiteCoverageFigure: the rendered figure lists exactly the
// injected classes and the campaign renderer includes the figure.
func TestRenderSiteCoverageFigure(t *testing.T) {
	res := siteResult()
	fig := RenderSiteCoverage(res)
	for _, want := range []string{"gpr", "dtlb", "pmu", "coverage"} {
		if !strings.Contains(fig, want) {
			t.Errorf("site figure missing %q:\n%s", want, fig)
		}
	}
	if strings.Contains(fig, "pgtable") {
		t.Errorf("site figure lists an uninjected class:\n%s", fig)
	}
	if full := RenderCampaign(res); !strings.Contains(full, "fault-site class") {
		t.Error("RenderCampaign does not include the site-coverage figure")
	}
}

// TestCampaignConfigForValidatesSites: bad targets fail before any machine
// boots, with the apic/SMP interaction honoring the spec's vCPU count.
func TestCampaignConfigForValidatesSites(t *testing.T) {
	sp := Spec{InjectionsPerBenchmark: 4, Targets: []string{"bogus"}}
	if _, err := sp.CampaignConfig(); err == nil {
		t.Error("unknown target accepted")
	}
	sp.Targets = []string{"apic"}
	if _, err := sp.CampaignConfig(); err == nil {
		t.Error("apic accepted on the default single-CPU machine")
	}
	sp.VCPUs = 4
	cfg, err := sp.CampaignConfig()
	if err != nil {
		t.Fatalf("valid SMP targets rejected: %v", err)
	}
	if cfg.VCPUs != 4 || len(cfg.Targets) != 1 || cfg.Targets[0] != "apic" {
		t.Errorf("config pass-through = vcpus %d targets %v", cfg.VCPUs, cfg.Targets)
	}
}
