package store

import (
	"os"
	"reflect"
	"testing"

	"xentry/internal/inject"
)

// TestFailedWriteRefusesAppends: after a segment write fails, the store
// refuses every further append, even once the segment could take writes
// again, because a record appended behind a torn frame would be misread by
// replay; a reopen replays everything acknowledged before the failure.
func TestFailedWriteRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{CampaignID: "fail", Benchmarks: []string{"mcf"}, Injections: 16}
	s, err := Open(dir, meta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(i int) inject.Outcome {
		return inject.Outcome{Plan: inject.Plan{Activation: i, Bit: uint8(i)}, Activated: i%2 == 0}
	}
	for i := 0; i < 4; i++ {
		if err := s.Record("mcf", i, outcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}

	writable := s.seg
	readOnly, err := os.Open(writable.Name())
	if err != nil {
		t.Fatal(err)
	}
	s.seg = readOnly
	if err := s.Record("mcf", 4, outcome(4)); err == nil {
		t.Fatal("append through a read-only segment handle succeeded")
	}
	s.seg = writable
	readOnly.Close()
	if n, err := s.AppendBatch([]BatchEntry{{Bench: "mcf", Index: 5, Outcome: outcome(5)}}); err == nil || n != 0 {
		t.Fatalf("append after a failed write: n=%d err=%v, want a refusal", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Meta{}, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || re.Dropped() != 0 {
		t.Fatalf("reopen after the failure replayed %d records (dropped %d), want the 4 acknowledged",
			got.Total.Injections, re.Dropped())
	}
}
