package store_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"xentry/internal/core"
	"xentry/internal/guest"
	"xentry/internal/inject"
	"xentry/internal/store"
)

func testMeta() store.Meta {
	return store.Meta{
		CampaignID:  "c-test",
		Benchmarks:  []string{"mcf", "x264"},
		Injections:  64,
		Activations: 40,
		Seed:        11,
	}
}

// genOutcome returns a deterministic, field-diverse outcome for index i.
func genOutcome(i int) inject.Outcome {
	o := inject.Outcome{
		Plan:      inject.Plan{Activation: i % 7, Step: uint64(i), Bit: uint8(i % 64)},
		Activated: i%3 != 0,
		Symbol:    "do_softirq",
	}
	if i%3 == 1 {
		o.Manifested = true
		o.Consequence = guest.AppSDC
		o.Cause = inject.CauseTimeValue
	}
	if i%3 == 2 {
		o.Manifested = true
		o.Detected = core.TechHWException
		o.DetectedAt = i % 7
		o.Latency = uint64(1000 - i)
		o.Consequence = guest.AllVMFailure
		o.LongLatency = i%2 == 0
	}
	return o
}

// expectResult folds the same records through plain tallies.
func expectResult(meta store.Meta, recs map[string][]int) *inject.CampaignResult {
	res := &inject.CampaignResult{
		PerBenchmark: map[string]*inject.Tally{},
		Total:        inject.NewTally(),
	}
	for _, bench := range meta.Benchmarks {
		t := inject.NewTally()
		for _, i := range recs[bench] {
			t.Add(genOutcome(i))
		}
		res.PerBenchmark[bench] = t
		res.Total.Merge(t)
	}
	res.Normalize()
	return res
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta()
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string][]int{}
	for _, bench := range meta.Benchmarks {
		for i := 0; i < 20; i++ {
			if err := s.Record(bench, i, genOutcome(i)); err != nil {
				t.Fatal(err)
			}
			recs[bench] = append(recs[bench], i)
		}
	}
	if !s.Has("mcf", 19) || s.Has("mcf", 20) || s.Has("nope", 0) {
		t.Error("Has misreports stored indices")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := store.Open(dir, meta, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.TotalCount(); got != 40 {
		t.Fatalf("reopened count = %d, want 40", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := expectResult(meta, recs); !reflect.DeepEqual(got, want) {
		t.Errorf("round-tripped result differs:\ngot:  %+v\nwant: %+v", got.Total, want.Total)
	}
	if err := r.Record("mcf", 40, genOutcome(40)); err == nil {
		t.Error("read-only store accepted a record")
	}
}

func TestStoreDuplicatesFoldOnce(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta()
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := s.Record("mcf", 5, genOutcome(5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Count("mcf"); got != 1 {
		t.Fatalf("count after duplicate appends = %d, want 1", got)
	}
	s.Close()

	// A reassigned shard on another worker appends straight to its own WAL:
	// craft a duplicate frame on disk and make sure replay folds it once.
	appendFrame(t, filepath.Join(dir, "wal-000001.log"), wireEntry("mcf", 5, genOutcome(5)).Frame)
	r, err := store.Open(dir, meta, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Count("mcf"); got != 1 {
		t.Fatalf("count after on-disk duplicate = %d, want 1", got)
	}
	res, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Injections != 1 {
		t.Fatalf("folded injections = %d, want 1", res.Total.Injections)
	}
}

func appendFrame(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTruncatedTail: a crash mid-append leaves a torn record at the
// WAL tail. Resume must recover every intact record and count one drop.
func TestStoreTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta()
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Record("mcf", i, genOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "wal-000000.log")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(dir, meta, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("resume over truncated tail must not fail: %v", err)
	}
	if got := r.Count("mcf"); got != 9 {
		t.Errorf("recovered %d records, want 9", got)
	}
	if got := r.Dropped(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

// TestStoreBadCRCMidSegment: a corrupted payload in the middle of a
// segment drops exactly that record; framing stays intact so every later
// record is still recovered.
func TestStoreBadCRCMidSegment(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta()
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Record("mcf", i, genOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "wal-000000.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Record 0 starts at offset 0: corrupt a byte of its payload (past the
	// 8-byte header), leaving the length field intact.
	data[12] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(dir, meta, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("resume over mid-segment corruption must not fail: %v", err)
	}
	if got := r.Count("mcf"); got != 9 {
		t.Errorf("recovered %d records, want 9 (records 1..9)", got)
	}
	if got := r.Dropped(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if r.Has("mcf", 0) {
		t.Error("corrupted record 0 must not be folded")
	}
}

func TestStoreMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta()
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	bad := meta
	bad.Seed = 999
	if _, err := store.Open(dir, bad, store.Options{}); err == nil {
		t.Error("open with mismatching seed must fail")
	}
	bad = meta
	bad.Benchmarks = []string{"mcf"}
	if _, err := store.Open(dir, bad, store.Options{}); err == nil {
		t.Error("open with mismatching benchmarks must fail")
	}
	// Unset identity fields are not checked.
	if _, err := store.Open(dir, store.Meta{}, store.Options{ReadOnly: true}); err != nil {
		t.Errorf("open with empty meta: %v", err)
	}
}

// TestReadOnlyOpenCreatesNothing: a read-only Open of a directory that
// holds no store fails and leaves the path absent.
func TestReadOnlyOpenCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	if _, err := store.Open(dir, testMeta(), store.Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a missing store succeeded")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read-only open left %s behind (stat: %v)", dir, err)
	}
}

// interruptSink kills the campaign (by failing Record) after limit
// outcomes have been persisted, simulating a crash mid-campaign.
type interruptSink struct {
	*store.Store
	n     atomic.Int64
	limit int64
}

var errInterrupted = errors.New("interrupted")

func (f *interruptSink) Record(bench string, index int, o inject.Outcome) error {
	if f.n.Add(1) > f.limit {
		return errInterrupted
	}
	return f.Store.Record(bench, index, o)
}

// TestResumeCampaignFromWALBitIdentical is the acceptance test for the
// durable store: a real campaign interrupted after N outcomes, resumed
// from the WAL by a fresh process (fresh Store), produces aggregates
// bit-identical to an uninterrupted single-process run.
func TestResumeCampaignFromWALBitIdentical(t *testing.T) {
	cfg := inject.DefaultCampaign(30, 17)
	cfg.Benchmarks = []string{"mcf"}
	cfg.Activations = 40
	cfg.Workers = 2

	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	meta := store.Meta{
		CampaignID:  "c-resume",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inject.ResumeCampaign(context.Background(), cfg, &interruptSink{Store: s, limit: 10})
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want errInterrupted", err)
	}
	s.Close()

	s2, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := s2.TotalCount()
	if stored < 10 || stored >= cfg.InjectionsPerBenchmark {
		t.Fatalf("stored %d outcomes before resume, want partial coverage", stored)
	}
	got, err := inject.ResumeCampaign(context.Background(), cfg, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Complete() {
		t.Error("store not complete after resumed campaign")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed aggregates differ from uninterrupted run:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
	s2.Close()
}
