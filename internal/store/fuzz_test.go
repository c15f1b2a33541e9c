package store_test

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"xentry/internal/inject"
	"xentry/internal/store"
	"xentry/internal/wire"
)

// encodeFrame builds one WAL frame with the JSON record payload earlier
// releases wrote (Store.Record writes binary records): uint32 payload
// length, uint32 CRC32-IEEE, JSON payload — all little-endian.
func encodeFrame(tb testing.TB, bench string, index int, o inject.Outcome) []byte {
	tb.Helper()
	payload, err := json.Marshal(struct {
		Bench   string         `json:"b"`
		Index   int            `json:"i"`
		Outcome inject.Outcome `json:"o"`
	}{bench, index, o})
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// FuzzWALReplay feeds arbitrary bytes in as a WAL segment tail behind two
// intact records and resumes the store over it. Replay must never panic,
// never error (damage is dropped, not fatal), never lose the intact
// prefix, and always leave the store able to assemble a result. The seed
// corpus covers the replay loop's damage classes — payload corruption,
// torn tails, absurd length fields, out-of-range indices — so a plain
// `go test` run exercises them deterministically.
func FuzzWALReplay(f *testing.F) {
	intact := append(encodeFrame(f, "mcf", 0, genOutcome(2)), encodeFrame(f, "mcf", 1, genOutcome(1))...)

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
	f.Add(encodeFrame(f, "mcf", 1<<40, genOutcome(2))) // index outside the plan range
	f.Add(encodeFrame(f, "mcf", -7, genOutcome(2)))
	f.Add(encodeFrame(f, "zzz", 2, genOutcome(5))) // benchmark the meta never named
	o := genOutcome(3)
	binFrame, _ := wire.AppendRecordFrame(nil, nil, "x264", 3, &o)
	f.Add(binFrame) // a binary record, as Record and the fleet write them

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
		res, err := s2.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Total.Injections < 2 {
			t.Fatalf("result lost the intact prefix: %+v", res.Total)
		}
	})
}
