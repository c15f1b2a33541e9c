package store_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xentry/internal/inject"
	"xentry/internal/store"
	"xentry/internal/wire"
)

// readSegments concatenates every WAL segment of a store directory in
// order, giving the byte-for-byte log the property tests compare.
func readSegments(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".log" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// wireEntry builds a BatchEntry carrying the binary frame, as the fleet
// ingest path does.
func wireEntry(bench string, index int, o inject.Outcome) store.BatchEntry {
	frame, _ := wire.AppendRecordFrame(nil, nil, bench, index, &o)
	return store.BatchEntry{Bench: bench, Index: index, Outcome: o, Frame: frame}
}

// TestAppendBatchEquivalence is the batched-WAL property test: the same
// records appended singly and in batches (wire-framed entries, duplicates
// against the store and within a batch included) produce stores whose
// WAL bytes replay to identical state, and whose live state matches a
// record-by-record store exactly.
func TestAppendBatchEquivalence(t *testing.T) {
	meta := store.Meta{CampaignID: "batch", Benchmarks: []string{"mcf", "x264"}, Injections: 64}

	dirSingle, dirBatch := t.TempDir(), t.TempDir()
	single, err := store.Open(dirSingle, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := store.Open(dirBatch, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var entries []store.BatchEntry
	for _, bench := range meta.Benchmarks {
		for i := 0; i < 40; i++ {
			o := genOutcome(i)
			if err := single.Record(bench, i, o); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, wireEntry(bench, i, o))
		}
	}
	// Within-batch duplicate + cross-batch duplicate: both must fold once.
	entries = append(entries, wireEntry("mcf", 3, genOutcome(3)))
	if n, err := batch.AppendBatch(entries[:30]); err != nil || n != 30 {
		t.Fatalf("batch 1: n=%d err=%v", n, err)
	}
	if n, err := batch.AppendBatch(entries[25:]); err != nil || n != len(entries)-30-1 {
		t.Fatalf("batch 2: n=%d err=%v (want %d)", n, err, len(entries)-30-1)
	}
	if n, err := batch.AppendBatch(entries[:5]); err != nil || n != 0 {
		t.Fatalf("replayed batch: n=%d err=%v", n, err)
	}

	resSingle, err := single.Result()
	if err != nil {
		t.Fatal(err)
	}
	resBatch, err := batch.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resSingle, resBatch) {
		t.Fatal("batched result differs from record-by-record result")
	}
	if single.TotalCount() != batch.TotalCount() {
		t.Fatalf("counts: single=%d batch=%d", single.TotalCount(), batch.TotalCount())
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}

	// Both WALs must replay to the same result after reopen.
	for _, dir := range []string{dirSingle, dirBatch} {
		re, err := store.Open(dir, store.Meta{}, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := re.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, resSingle) {
			t.Fatalf("%s: replayed result differs", dir)
		}
		if re.Dropped() != 0 {
			t.Fatalf("%s: dropped=%d", dir, re.Dropped())
		}
		re.Close()
	}
}

// TestAppendBatchBytesIdentical: a batch of wire frames writes exactly
// the concatenation of the frames that per-entry AppendBatch calls would
// write — group commit changes syscall count, never bytes — and Record
// and a batch without frames write those same wire frames.
func TestAppendBatchBytesIdentical(t *testing.T) {
	meta := store.Meta{CampaignID: "bytes", Benchmarks: []string{"mcf"}, Injections: 32}
	open := func() (*store.Store, string) {
		dir := t.TempDir()
		s, err := store.Open(dir, meta, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s, dir
	}
	one, dirOne := open()
	many, dirMany := open()
	rec, dirRec := open()
	bare, dirBare := open()
	var entries, unframed []store.BatchEntry
	for i := 0; i < 20; i++ {
		e := wireEntry("mcf", i, genOutcome(i))
		entries = append(entries, e)
		e.Frame = nil
		unframed = append(unframed, e)
		if err := rec.Record(e.Bench, e.Index, e.Outcome); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := one.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if _, err := many.AppendBatch(entries[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bare.AppendBatch(unframed); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*store.Store{one, many, rec, bare} {
		s.Close()
	}
	want := readSegments(t, dirOne)
	for name, dir := range map[string]string{"per-record batch": dirMany, "Record": dirRec, "unframed batch": dirBare} {
		if !reflect.DeepEqual(readSegments(t, dir), want) {
			t.Errorf("%s WAL bytes differ from the batched wire frames", name)
		}
	}
}

// TestAppendBatchTruncationRecovery crashes a batch mid-write: the WAL
// tail is cut inside a record of the batch. Resume must keep every record
// before the tear, drop the torn tail, and leave the store appendable —
// and a corrupted (not torn) record inside a batch must cost exactly that
// record.
func TestAppendBatchTruncationRecovery(t *testing.T) {
	meta := store.Meta{CampaignID: "trunc", Benchmarks: []string{"mcf"}, Injections: 64}
	dir := t.TempDir()
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var entries []store.BatchEntry
	for i := 0; i < 10; i++ {
		entries = append(entries, wireEntry("mcf", i, genOutcome(i)))
	}
	if _, err := s.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "wal-000000.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Tear mid-batch: keep 7 intact records, cut into the middle of the
	// 8th.
	off := 0
	for i := 0; i < 7; i++ {
		off += len(entries[i].Frame)
	}
	torn := data[:off+len(entries[7].Frame)/2]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.Meta{}, store.Options{})
	if err != nil {
		t.Fatalf("resume over torn batch: %v", err)
	}
	if got := re.Count("mcf"); got != 7 {
		t.Fatalf("count after tear = %d, want 7", got)
	}
	if re.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", re.Dropped())
	}
	// The tear must not block re-recording the lost indices.
	if n, err := re.AppendBatch(entries[7:]); err != nil || n != 3 {
		t.Fatalf("refill: n=%d err=%v", n, err)
	}
	res, err := re.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Injections != 10 {
		t.Fatalf("refilled injections = %d", res.Total.Injections)
	}
	re.Close()

	// Bit rot inside the batch (framing intact): exactly one record lost,
	// the records after it survive.
	rotDir := t.TempDir()
	s2, err := store.Open(rotDir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	seg2 := filepath.Join(rotDir, "wal-000000.log")
	data2, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	data2[off+wire.FrameHeader+2] ^= 0xff // payload of record 7
	if err := os.WriteFile(seg2, data2, 0o644); err != nil {
		t.Fatal(err)
	}
	re2, err := store.Open(rotDir, store.Meta{}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Count("mcf"); got != 9 {
		t.Fatalf("count after bit rot = %d, want 9", got)
	}
	if re2.Has("mcf", 7) || !re2.Has("mcf", 8) {
		t.Fatal("bit rot dropped the wrong record")
	}
	if re2.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", re2.Dropped())
	}
}

// TestAppendBatchRotation: batches that carry the active segment past
// 1 MiB seal it and continue in the next, and a reopen replays every
// segment to the live result.
func TestAppendBatchRotation(t *testing.T) {
	const n = 100_000
	meta := store.Meta{CampaignID: "rot", Benchmarks: []string{"mcf"}, Injections: n}
	dir := t.TempDir()
	s, err := store.Open(dir, meta, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]store.BatchEntry, 0, 256)
	for lo := 0; lo < n; lo += cap(entries) {
		entries = entries[:0]
		for i := lo; i < min(lo+cap(entries), n); i++ {
			entries = append(entries, wireEntry("mcf", i, genOutcome(i)))
		}
		if _, err := s.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("%d segments after %d records, want several", len(segs), n)
	}
	for _, seg := range segs[:len(segs)-1] {
		if fi, err := os.Stat(seg); err != nil || fi.Size() < 1<<20 {
			t.Fatalf("%s sealed below 1 MiB (stat %v, err %v)", seg, fi, err)
		}
	}
	re, err := store.Open(dir, store.Meta{}, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || re.Dropped() != 0 {
		t.Fatalf("replay of %d segments differs from the live result (dropped %d)", len(segs), re.Dropped())
	}
}
