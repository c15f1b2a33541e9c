package server

import (
	"bufio"
	"context"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xentry/internal/inject"
)

// TestServerSitePruneMetrics drives an SMP multi-site campaign through the
// HTTP coordinator: the per-site prune provenance must match a local run
// bit-exactly, and /metrics must expose xentry_pruned_total broken down by
// {reason,site}, beside aggregate reason counters that sum to the report.
func TestServerSitePruneMetrics(t *testing.T) {
	cfg := testCampaignConfig()
	cfg.VCPUs = 2
	cfg.Targets = []string{"gpr", "dtlb", "apic", "pmu", "pgtable"}
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prunedSites int
	for s := inject.Site(0); s < inject.NumSites; s++ {
		if want.Total.Prune.BySite[s] != (inject.SitePruneStats{}) {
			prunedSites++
		}
	}
	if prunedSites < 2 {
		t.Fatalf("local reference campaign pruned on %d site classes; need >= 2 for the metric assertion", prunedSites)
	}

	_, client := testServer(t)
	spec := CampaignSpec{
		ID:                     "site-prune",
		Benchmarks:             cfg.Benchmarks,
		InjectionsPerBenchmark: cfg.InjectionsPerBenchmark,
		Activations:            cfg.Activations,
		Seed:                   cfg.Seed,
		VCPUs:                  cfg.VCPUs,
		Targets:                cfg.Targets,
	}
	rep, err := client.RunToCompletion(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Result.Total.Prune, want.Total.Prune) {
		t.Errorf("server prune provenance differs from local run:\ngot:  %+v\nwant: %+v",
			rep.Result.Total.Prune, want.Total.Prune)
	}

	resp, err := http.Get(strings.TrimRight(client.Base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	siteRows := map[string]bool{}
	reasons := map[string]string{}
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		line := sc.Text()
		if !strings.HasPrefix(line, `xentry_pruned_total{`) {
			continue
		}
		if !strings.Contains(line, `site="`) {
			key, value, _ := strings.Cut(line, " ")
			reasons[key] = value
			continue
		}
		_, rest, _ := strings.Cut(line, `site="`)
		site, _, _ := strings.Cut(rest, `"`)
		siteRows[site] = true
	}
	if len(siteRows) < prunedSites {
		t.Errorf("metrics page exposes per-site pruned rows for %d sites %v, want >= %d",
			len(siteRows), siteRows, prunedSites)
	}
	// The per-reason aggregates are the report's prune counts.
	for key, want := range map[string]int{
		`xentry_pruned_total{reason="dead"}`:      rep.Result.Total.Prune.Dead,
		`xentry_pruned_total{reason="converged"}`: rep.Result.Total.Prune.Converged,
	} {
		if got := reasons[key]; got != strconv.Itoa(want) {
			t.Errorf("%s = %q, want %d", key, got, want)
		}
	}
}

// TestServerRejectsBadSiteSpec: unknown injection-target names, apic on a
// single-CPU machine, and out-of-range vCPU counts are 400s at submission —
// the same early-rejection contract the detector and recovery specs get.
func TestServerRejectsBadSiteSpec(t *testing.T) {
	_, client := testServer(t)
	_, err := client.Submit(CampaignSpec{InjectionsPerBenchmark: 4, Targets: []string{"cache"}})
	if err == nil || !strings.Contains(err.Error(), "cache") ||
		!strings.Contains(err.Error(), "gpr") {
		t.Errorf("unknown target: err = %v, want 400 naming the available set", err)
	}
	_, err = client.Submit(CampaignSpec{InjectionsPerBenchmark: 4, Targets: []string{"apic"}})
	if err == nil || !strings.Contains(err.Error(), "vcpus") {
		t.Errorf("apic without SMP: err = %v, want 400 requiring vcpus >= 2", err)
	}
	_, err = client.Submit(CampaignSpec{InjectionsPerBenchmark: 4, VCPUs: 99})
	if err == nil || !strings.Contains(err.Error(), "vcpus") {
		t.Errorf("vcpus out of range: err = %v, want 400", err)
	}
	_, err = client.Submit(CampaignSpec{InjectionsPerBenchmark: 4, VCPUs: -1})
	if err == nil {
		t.Errorf("negative vcpus accepted")
	}
}
