package store_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"xentry/internal/core"
	"xentry/internal/inject"
	"xentry/internal/store"
	"xentry/internal/workload"
)

// TestResumeSMPMultiSiteCampaignBitIdentical is the acceptance scenario's
// durability half: a 4-vCPU campaign injecting every site class is killed
// mid-run (its partial outcomes already in the WAL, site blocks included)
// and resumed in a fresh process's store; the folded result — per-site
// coverage rows and all — must equal an uninterrupted run's exactly.
func TestResumeSMPMultiSiteCampaignBitIdentical(t *testing.T) {
	cfg := inject.CampaignConfig{
		Benchmarks:             []string{"mcf"},
		Mode:                   workload.PV,
		InjectionsPerBenchmark: 40,
		Activations:            60,
		Seed:                   29,
		Workers:                2,
		Detection:              core.FullDetection(),
		VCPUs:                  4,
		Targets:                []string{"gpr", "dtlb", "apic", "pmu", "pgtable"},
	}

	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	meta := store.Meta{
		CampaignID:  "c-smp-resume",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inject.ResumeCampaign(context.Background(), cfg, &interruptSink{Store: s, limit: 12})
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want errInterrupted", err)
	}
	s.Close()

	s2, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.TotalCount(); n < 12 || n >= cfg.InjectionsPerBenchmark {
		t.Fatalf("stored %d outcomes before resume, want partial coverage", n)
	}
	got, err := inject.ResumeCampaign(context.Background(), cfg, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed SMP aggregates differ from uninterrupted run:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
	for site, st := range want.Total.BySite {
		g := got.Total.BySite[site]
		if g == nil || *g != *st {
			t.Fatalf("site %v rows differ after resume: got %+v want %+v", site, g, st)
		}
	}
	if len(want.Total.BySite) < 5 {
		t.Fatalf("campaign drew only %d site classes: %+v",
			len(want.Total.BySite), want.Total.BySite)
	}
}
