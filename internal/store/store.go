// Package store is the durable, resumable result store of the campaign
// service: one append-only log of per-injection outcomes keyed by
// (campaign ID, benchmark, plan index). Every record is a CRC-framed binary
// wire record (wire.AppendRecordFrame), appended to wal-NNNNNN.log
// segments; a segment is sealed with an fsync once it reaches 1 MiB.
// Opening an existing directory replays every segment crash-safely: every
// intact record is folded, damaged, truncated or foreign records are
// counted and dropped (never fatal), and duplicate records — the normal
// byproduct of a reassigned shard re-executing runs — fold only once.
//
// Store implements inject.ResultSink, so inject.ResumeCampaign and the
// distributed coordinator in internal/server persist through the same
// interface, and Result() assembles aggregates bit-identical to a
// single-process inject.RunCampaign of the same campaign.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"xentry/internal/inject"
	"xentry/internal/wire"
)

// Meta pins the identity of the campaign a store directory belongs to.
// Resuming with mismatching identity fields is an error: outcomes from a
// different seed schedule must never be folded together.
type Meta struct {
	CampaignID string   `json:"campaign_id"`
	Benchmarks []string `json:"benchmarks"`
	// Injections is the per-benchmark plan count (plan indices are
	// [0, Injections) per benchmark).
	Injections  int   `json:"injections_per_benchmark"`
	Activations int   `json:"activations"`
	Seed        int64 `json:"seed"`
	// Extra is an opaque caller blob (the server stores its campaign spec
	// here so a restarted coordinator can rebuild the run).
	Extra json.RawMessage `json:"extra,omitempty"`
}

// Options tune the store.
type Options struct {
	// ReadOnly opens the store for folding only: no segment is created and
	// appends fail. Used to render figures from a finished campaign.
	ReadOnly bool
}

// segmentBytes is the size at which the active segment is sealed: synced,
// closed and followed by a fresh one. It bounds what a host crash can lose
// of the acknowledged records without an fsync per batch.
const segmentBytes = 1 << 20

// Store implements inject.ResultSink.
var _ inject.ResultSink = (*Store)(nil)

// Store is a durable campaign result store rooted at one directory. All
// methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	meta Meta

	mu      sync.Mutex
	tallies map[string]*inject.Tally
	have    map[string][]uint64
	dropped int
	closed  bool
	// failed is the first error writing, syncing or rotating a segment.
	// The segment may then end in a torn frame, and replay would misread a
	// record appended behind it, so every later append returns failed.
	failed error

	seg      *os.File
	segIndex int
	segBytes int64

	// batchBuf holds the frames of the append in progress, recBuf the
	// record payload being framed, freshIdx AppendBatch's fresh entries.
	// All are reused under mu.
	batchBuf []byte
	recBuf   []byte
	freshIdx []int
}

// Open creates a store in dir, or resumes the one already there. For a new
// store, meta must carry the campaign identity; for an existing one, any
// identity fields set in meta are checked against the stored ones and a
// mismatch is an error. Resume is crash-safe: every WAL segment is
// replayed, corrupt or truncated records are dropped and counted (see
// Dropped), and appends continue into a fresh segment so a torn tail is
// never appended to. A read-only Open creates nothing, not even dir.
func Open(dir string, meta Meta, opts Options) (*Store, error) {
	s := &Store{
		dir:     dir,
		opts:    opts,
		tallies: map[string]*inject.Tally{},
		have:    map[string][]uint64{},
	}
	stored, err := loadMeta(dir)
	switch {
	case err == nil:
		if err := checkMeta(stored, meta); err != nil {
			return nil, err
		}
		s.meta = stored
	case errors.Is(err, os.ErrNotExist):
		if opts.ReadOnly {
			return nil, fmt.Errorf("store: %s: no store to open read-only", dir)
		}
		if len(meta.Benchmarks) == 0 || meta.Injections <= 0 {
			return nil, fmt.Errorf("store: new store needs benchmarks and an injection count")
		}
		data, err := json.Marshal(meta)
		if err != nil {
			return nil, fmt.Errorf("store: meta: %w", err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.meta = meta
		if err := writeFileAtomic(filepath.Join(dir, "meta.json"), data); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	if err := s.resume(); err != nil {
		return nil, err
	}
	return s, nil
}

func loadMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("store: meta.json: %w", err)
	}
	return m, nil
}

// checkMeta verifies every identity field the caller set against the
// stored identity.
func checkMeta(stored, want Meta) error {
	if want.CampaignID != "" && want.CampaignID != stored.CampaignID {
		return fmt.Errorf("store: holds campaign %q, not %q", stored.CampaignID, want.CampaignID)
	}
	if want.Seed != 0 && want.Seed != stored.Seed {
		return fmt.Errorf("store: holds seed %d, not %d", stored.Seed, want.Seed)
	}
	if want.Injections != 0 && want.Injections != stored.Injections {
		return fmt.Errorf("store: holds %d injections/benchmark, not %d", stored.Injections, want.Injections)
	}
	if want.Activations != 0 && want.Activations != stored.Activations {
		return fmt.Errorf("store: holds %d activations, not %d", stored.Activations, want.Activations)
	}
	if len(want.Benchmarks) != 0 && !equalStrings(want.Benchmarks, stored.Benchmarks) {
		return fmt.Errorf("store: holds benchmarks %v, not %v", stored.Benchmarks, want.Benchmarks)
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resume replays every WAL segment and positions the store for appending.
func (s *Store) resume() error {
	segs, err := s.segments()
	if err != nil {
		return err
	}
	dec := wire.NewDecoder()
	for _, seg := range segs {
		if err := s.replaySegment(dec, seg); err != nil {
			return err
		}
	}
	if s.opts.ReadOnly {
		return nil
	}
	// Never append to a possibly-torn tail: start a fresh segment.
	if len(segs) > 0 {
		s.segIndex = segs[len(segs)-1] + 1
	}
	return s.openSegment()
}

// segments lists the existing WAL segment indices in ascending order.
func (s *Store) segments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%06d.log", n))
}

func (s *Store) openSegment() error {
	f, err := os.OpenFile(s.segPath(s.segIndex), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seg, s.segBytes = f, 0
	return nil
}

// replaySegment folds every intact record of one segment, skipping
// duplicates and counting drops. A bad CRC with intact framing, a payload
// that is no binary record, and a record outside the campaign each cost
// that record; a truncated tail or corrupt length field ends the segment
// (framing is gone, nothing past it can be trusted).
func (s *Store) replaySegment(dec *wire.Decoder, n int) error {
	data, err := os.ReadFile(s.segPath(n))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for len(data) > 0 {
		payload, rest, err := wire.SplitFrame(data)
		data = rest // nil after framing damage
		if err != nil {
			s.dropped++
			continue
		}
		bench, index, o, err := dec.DecodeRecord(payload)
		// A record outside the campaign's benchmarks or plan range is
		// damage even when the CRC holds: no result would count it, and
		// folding it would grow the dedup bitmap to the claimed index.
		if err != nil || index >= s.meta.Injections || !slices.Contains(s.meta.Benchmarks, bench) {
			s.dropped++
			continue
		}
		if s.markLocked(bench, index) {
			s.tallyLocked(bench, o)
		}
	}
	return nil
}

// markLocked claims (bench, index) in the dedup bitmap, reporting whether
// it was fresh.
func (s *Store) markLocked(bench string, index int) bool {
	if index < 0 {
		return false
	}
	bits := s.have[bench]
	if need := index/64 + 1; len(bits) < need {
		// append grows the capacity geometrically: replaying records in
		// index order would otherwise copy the bitmap once per 64 records.
		bits = append(bits, make([]uint64, need-len(bits))...)
	}
	if bits[index/64]&(1<<(index%64)) != 0 {
		return false
	}
	bits[index/64] |= 1 << (index % 64)
	s.have[bench] = bits
	return true
}

// tallyLocked folds a freshly marked outcome into its benchmark's tally.
func (s *Store) tallyLocked(bench string, o inject.Outcome) {
	t := s.tallies[bench]
	if t == nil {
		t = inject.NewTally()
		s.tallies[bench] = t
	}
	t.Add(o)
}

// countLocked is how many outcomes are folded for one benchmark.
func (s *Store) countLocked(bench string) int {
	if t := s.tallies[bench]; t != nil {
		return t.Injections
	}
	return 0
}

// Has reports whether an outcome for (bench, index) is stored. It is part
// of inject.ResultSink: ResumeCampaign skips these indices.
func (s *Store) Has(bench string, index int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	bits := s.have[bench]
	return index >= 0 && index/64 < len(bits) && bits[index/64]&(1<<(index%64)) != 0
}

// Record appends one outcome to the WAL and folds it: a one-entry
// AppendBatch.
func (s *Store) Record(bench string, index int, o inject.Outcome) error {
	_, err := s.AppendBatch([]BatchEntry{{Bench: bench, Index: index, Outcome: o}})
	return err
}

// BatchEntry is one record of an AppendBatch call.
type BatchEntry struct {
	Bench   string
	Index   int
	Outcome inject.Outcome
	// Frame optionally carries the record already framed in the binary
	// wire encoding (wire.AppendRecordFrame). It MUST encode exactly
	// (Bench, Index, Outcome) with a valid CRC — the fleet ingest path
	// satisfies this by construction, having decoded Outcome from the
	// frame after verifying it — and is appended to the WAL verbatim, so
	// the hot path never re-encodes. A nil Frame is encoded here.
	Frame []byte
	// Fresh is an out-field: AppendBatch sets it to whether this entry was
	// newly folded (not a duplicate of the store or of an earlier entry in
	// the batch). Callers use it to emit per-outcome events for exactly the
	// records that counted.
	Fresh bool
}

// AppendBatch group-commits a batch of records: one lock acquisition, one
// dedup pass, one contiguous segment write, one rotation decision.
// Duplicates — against the store and within the batch — are skipped; the
// first record wins, and outcomes are deterministic, so a duplicate from a
// reassigned shard carries identical bits anyway. It returns how many
// entries were fresh. Replaying a WAL written in batches is
// indistinguishable from one written record by record: the bytes are the
// same frames in the same order.
//
// After the first failed segment write, sync or rotation, the store
// refuses every further append with that error. Its in-memory state may
// then claim records that never reached the disk; a reopen replays
// exactly those that did.
func (s *Store) AppendBatch(entries []BatchEntry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, fmt.Errorf("store: closed")
	case s.opts.ReadOnly:
		return 0, fmt.Errorf("store: read-only")
	case s.failed != nil:
		return 0, s.failed
	}
	buf := s.batchBuf[:0]
	fresh := s.freshIdx[:0]
	for i := range entries {
		e := &entries[i]
		e.Fresh = s.markLocked(e.Bench, e.Index)
		if !e.Fresh {
			continue
		}
		fresh = append(fresh, i)
		if e.Frame != nil {
			buf = append(buf, e.Frame...)
		} else {
			buf, s.recBuf = wire.AppendRecordFrame(buf, s.recBuf, e.Bench, e.Index, &e.Outcome)
		}
	}
	s.batchBuf, s.freshIdx = buf, fresh[:0]
	if len(fresh) == 0 {
		return 0, nil
	}
	if _, err := s.seg.Write(buf); err != nil {
		s.failed = fmt.Errorf("store: append: %w", err)
		return 0, s.failed
	}
	s.segBytes += int64(len(buf))
	for _, j := range fresh {
		s.tallyLocked(entries[j].Bench, entries[j].Outcome)
	}
	if s.segBytes >= segmentBytes {
		s.failed = s.rotateLocked()
	}
	return len(fresh), s.failed
}

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() error {
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segIndex++
	return s.openSegment()
}

// Result assembles the normalized campaign aggregates from everything
// stored: per-benchmark tallies cloned from the folded state and a total
// merged across the campaign's benchmark order. For a complete store the
// result is bit-identical to single-process inject.RunCampaign with the
// same config.
func (s *Store) Result() (*inject.CampaignResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &inject.CampaignResult{
		PerBenchmark: map[string]*inject.Tally{},
		Total:        inject.NewTally(),
	}
	for _, bench := range s.meta.Benchmarks {
		t := s.tallies[bench]
		if t == nil {
			t = inject.NewTally()
		} else {
			t = t.Clone()
		}
		res.PerBenchmark[bench] = t
		res.Total.Merge(t)
	}
	res.Normalize()
	return res, nil
}

// Meta returns the campaign identity the store was created with.
func (s *Store) Meta() Meta { return s.meta }

// Count returns how many outcomes are stored for one benchmark.
func (s *Store) Count(bench string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countLocked(bench)
}

// TotalCount returns how many outcomes are stored across all benchmarks.
func (s *Store) TotalCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, bench := range s.meta.Benchmarks {
		n += s.countLocked(bench)
	}
	return n
}

// Complete reports whether every plan index of every benchmark is stored.
func (s *Store) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, bench := range s.meta.Benchmarks {
		if s.countLocked(bench) < s.meta.Injections {
			return false
		}
	}
	return true
}

// Dropped returns how many corrupt, truncated or foreign WAL records the
// replay at Open dropped.
func (s *Store) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close seals the store. The active segment is synced; a reopened store
// replays every segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seg == nil {
		return nil
	}
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seg = nil
	return nil
}

// writeFileAtomic writes data via a temp file + rename so readers never
// observe a half-written file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
