package store_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"testing"

	"xentry/internal/inject"
	"xentry/internal/store"
)

// TestWALForwardCompatNoRecoveryFields: a store written before the recovery
// engine existed carries WAL records with no Recovery field at all. They
// must replay cleanly into the current Tally — decoding to the zero
// recovery record ("no attempt") — and produce aggregates identical to
// folding the same outcomes directly.
func TestWALForwardCompatNoRecoveryFields(t *testing.T) {
	meta := testMeta()
	dir := t.TempDir()

	// Write meta.json by opening (and immediately closing) a store, then
	// hand-author a WAL segment whose records predate the Recovery field.
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	recs := map[string][]int{}
	for i := 0; i < 20; i++ {
		appendFrame(t, filepath.Join(dir, "wal-000001.log"), legacyFrame(t, "mcf", i))
		recs["mcf"] = append(recs["mcf"], i)
	}

	r, err := store.Open(dir, meta, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("resume over pre-recovery WAL must not fail: %v", err)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("dropped = %d, want 0 (legacy records are valid)", got)
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := expectResult(meta, recs)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("legacy WAL result differs from direct fold:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
	if got.Total.Recovery.Attempts != 0 {
		t.Errorf("legacy records folded %d recovery attempts, want 0",
			got.Total.Recovery.Attempts)
	}
}

// legacyFrame encodes one WAL record the way a pre-recovery release did:
// the same framing and payload shape, with the Recovery key stripped from
// the outcome object.
func legacyFrame(t *testing.T, bench string, index int) []byte {
	t.Helper()
	data, err := json.Marshal(genOutcome(index))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["Recovery"]; !ok {
		t.Fatal("outcome JSON does not carry a Recovery key to strip")
	}
	delete(fields, "Recovery")
	stripped, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(struct {
		Bench   string          `json:"b"`
		Index   int             `json:"i"`
		Outcome json.RawMessage `json:"o"`
	}{bench, index, stripped})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8, 8+len(rec))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(rec))
	return append(buf, rec...)
}

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
	s, err := store.Open(dir, meta, store.Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inject.ResumeCampaign(context.Background(), cfg, &interruptSink{Store: s, limit: 15})
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want errInterrupted", err)
	}
	s.Close()

	s2, err := store.Open(dir, meta, store.Options{MaxSegmentBytes: 2048})
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
