package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"xentry/internal/store"
	"xentry/internal/wire"
)

// FuzzWALReplay feeds arbitrary bytes in as a WAL segment tail behind two
// intact records and resumes the store over it. Replay must never panic,
// never error (damage is dropped, not fatal), never lose the intact
// prefix, fold exactly what Result counts, and always leave the store able
// to assemble a result. The seed corpus covers the replay loop's damage
// classes — payload corruption, torn tails, absurd length fields,
// out-of-range indices, a benchmark the campaign never named, a CRC-valid
// payload that is no binary record — so a plain `go test` run exercises
// them deterministically.
func FuzzWALReplay(f *testing.F) {
	intact := append(wireEntry("mcf", 0, genOutcome(2)).Frame, wireEntry("mcf", 1, genOutcome(1)).Frame...)
	jsonPayload, err := json.Marshal(map[string]any{"b": "mcf", "i": 4, "o": genOutcome(4)})
	if err != nil {
		f.Fatal(err)
	}
	// CRC-valid frames that replay must count as one dropped record each:
	// a JSON record (replay reads binary records only), an index past the
	// plan range (which the decoder accepts) and a benchmark the meta
	// never named.
	foreign := [][]byte{
		wire.AppendFrame(nil, jsonPayload),
		wireEntry("mcf", 1<<20, genOutcome(2)).Frame,
		wireEntry("zzz", 2, genOutcome(5)).Frame,
	}

	f.Add([]byte{})
	f.Add(append([]byte{}, intact...)) // two more valid (duplicate) records
	corrupt := append([]byte{}, intact...)
	corrupt[len(corrupt)-3] ^= 0xff // payload bit rot under an intact header
	f.Add(corrupt)
	f.Add(intact[:len(intact)-5]) // torn tail record
	f.Add(intact[:3])             // torn header
	absurd := make([]byte, 8)
	binary.LittleEndian.PutUint32(absurd, 1<<30) // length beyond any record
	f.Add(absurd)
	f.Add(foreign[1]) // index outside the plan range
	f.Add(wireEntry("mcf", -7, genOutcome(2)).Frame)
	f.Add(foreign[2]) // benchmark the meta never named
	f.Add(wireEntry("x264", 3, genOutcome(3)).Frame)
	f.Add(foreign[0]) // JSON record

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		meta := store.Meta{
			CampaignID: "fuzz",
			Benchmarks: []string{"mcf", "x264"},
			Injections: 64,
		}
		s, err := store.Open(dir, meta, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "wal-000000.log")
		if err := os.WriteFile(seg, append(append([]byte{}, intact...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := store.Open(dir, store.Meta{}, store.Options{})
		if err != nil {
			t.Fatalf("resume over damaged segment must drop, not fail: %v", err)
		}
		defer s2.Close()
		if got := s2.Count("mcf"); got < 2 {
			t.Fatalf("intact prefix lost: count=%d dropped=%d", got, s2.Dropped())
		}
		if s2.Dropped() < 0 {
			t.Fatalf("negative drop count %d", s2.Dropped())
		}
		for _, fr := range foreign {
			if bytes.Equal(tail, fr) && s2.Dropped() != 1 {
				t.Fatalf("record outside the campaign: dropped=%d, want 1", s2.Dropped())
			}
		}
		res, err := s2.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Total.Injections < 2 {
			t.Fatalf("result lost the intact prefix: %+v", res.Total)
		}
		if got := s2.TotalCount(); got != res.Total.Injections {
			t.Fatalf("TotalCount %d, but Result folds %d injections", got, res.Total.Injections)
		}
	})
}
