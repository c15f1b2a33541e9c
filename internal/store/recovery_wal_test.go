package store_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"xentry/internal/inject"
	"xentry/internal/store"
)

// TestResumeRecoveryCampaignFromWALBitIdentical: kill/resume over the WAL
// with the recovery engine armed. The recovery records and their aggregates
// must survive the round-trip bit-identically to an uninterrupted run.
func TestResumeRecoveryCampaignFromWALBitIdentical(t *testing.T) {
	cfg := inject.DefaultCampaign(60, 17)
	cfg.Benchmarks = []string{"mcf"}
	cfg.Activations = 40
	cfg.Workers = 2
	cfg.Recovery = "microreboot"

	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total.Recovery.Attempts == 0 {
		t.Fatal("campaign attempted no recoveries; the round-trip proves nothing")
	}

	dir := t.TempDir()
	meta := store.Meta{
		CampaignID:  "c-recovery-resume",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inject.ResumeCampaign(context.Background(), cfg, &interruptSink{Store: s, limit: 15})
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want errInterrupted", err)
	}
	s.Close()

	s2, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := inject.ResumeCampaign(context.Background(), cfg, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Complete() {
		t.Error("store not complete after resumed campaign")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed recovery aggregates differ from uninterrupted run:\ngot:  %+v\nwant: %+v",
			got.Total.Recovery, want.Total.Recovery)
	}
	s2.Close()
}
