package inject

import (
	"reflect"
	"testing"

	"xentry/internal/core"
	"xentry/internal/workload"
)

// smpCampaign is the multi-site differential configuration: a 4-vCPU
// machine (Dom0 + 2 DomU) drawing plans over every site class.
func smpCampaign() CampaignConfig {
	return CampaignConfig{
		Benchmarks:             []string{"mcf", "postmark"},
		Mode:                   workload.PV,
		InjectionsPerBenchmark: 60,
		Activations:            80,
		Seed:                   19,
		Workers:                2,
		Detection:              core.FullDetection(),
		VCPUs:                  4,
		Targets:                []string{"gpr", "dtlb", "apic", "pmu", "pgtable"},
	}
}

// TestSMPMultiSiteCampaignDeterministic: the acceptance campaign — 4 vCPUs,
// every site class — folds bit-identically across two full runs, lands
// injections in every selected class, and spreads activations over the
// vCPU bank.
func TestSMPMultiSiteCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	cfg := smpCampaign()
	first, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Normalize()
	second.Normalize()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("SMP multi-site campaign is nondeterministic\nfirst:  %+v\nsecond: %+v",
			first.Total, second.Total)
	}

	for _, want := range []Site{SiteGPR, SiteTLB, SiteAPIC, SitePMU, SitePT} {
		st := first.Total.BySite[want]
		if st == nil || st.Injections == 0 {
			t.Errorf("site class %v drew no injections: %+v", want, first.Total.BySite)
		}
	}
	sum := 0
	for _, st := range first.Total.BySite {
		sum += st.Injections
	}
	if sum != first.Total.Injections {
		t.Errorf("BySite injections sum %d does not partition total %d",
			sum, first.Total.Injections)
	}
	vsum := 0
	for _, n := range first.Total.ByVCPU {
		vsum += n
	}
	if vsum != first.Total.Injections {
		t.Errorf("ByVCPU sum %d does not partition total %d", vsum, first.Total.Injections)
	}
	if len(first.Total.ByVCPU) < 2 {
		t.Errorf("4-vCPU campaign used %d vCPUs: %+v", len(first.Total.ByVCPU), first.Total.ByVCPU)
	}
}

// TestPruneFiresForUncoreTargets is the tentpole's per-class differential:
// with the machine-wide fingerprint and the per-class dead arguments
// (prune_uncore.go), every uncore site class both prunes — dead synthesis
// or convergence actually fires — and stays bit-identical to a -prune=off
// run of the same campaign. The per-site Prune.BySite rows must attribute
// every pruned run to the selected class.
func TestPruneFiresForUncoreTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	for _, target := range []string{"dtlb", "apic", "pmu", "pgtable"} {
		t.Run(target, func(t *testing.T) {
			cfg := smpCampaign()
			cfg.Benchmarks = []string{"mcf"}
			cfg.InjectionsPerBenchmark = 30
			cfg.Targets = []string{target}
			pruned, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := pruned.Total.Prune
			if p.Dead+p.Converged == 0 {
				t.Fatalf("pruning never fired for %s targets: %+v", target, p)
			}
			siteSum := SitePruneStats{}
			for _, row := range p.BySite {
				siteSum.Dead += row.Dead
				siteSum.Converged += row.Converged
				siteSum.Full += row.Full
			}
			if siteSum != (SitePruneStats{Dead: p.Dead, Converged: p.Converged, Full: p.Full}) {
				t.Fatalf("%s BySite rows %+v do not partition aggregates %+v", target, siteSum, p)
			}
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
				t.Fatalf("%s campaign diverges from -prune=off baseline\ngot:  %+v\nwant: %+v",
					target, pruned.Total, full.Total)
			}
		})
	}
}

// TestPruneStillFiresForMultiVCPUGPR: register-only campaigns keep
// convergence pruning even on an SMP machine — the all-CPU fingerprint
// fold covers every register bank — and stay bit-identical to the
// full-budget engine.
func TestPruneStillFiresForMultiVCPUGPR(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	cfg := smpCampaign()
	cfg.Benchmarks = []string{"mcf"}
	cfg.Targets = []string{"gpr"}
	pruned, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := pruned.Total.Prune; p.Dead+p.Converged == 0 {
		t.Fatalf("pruning never fired for SMP gpr targets: %+v", p)
	}
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
		t.Fatalf("SMP gpr pruning diverges\ngot:  %+v\nwant: %+v", pruned.Total, full.Total)
	}
}
