package inject

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// testBenchmarkRun prepares a small campaign's only benchmark once.
func testBenchmarkRun(t *testing.T) (CampaignConfig, *BenchmarkRun) {
	t.Helper()
	cfg := DefaultCampaign(24, 19)
	cfg.Benchmarks = []string{"postmark"}
	cfg.Activations = 40
	br, err := PrepareBenchmark(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, br
}

// TestPrepareBenchmarkDeterministic: the same (config, index) always
// yields the same plans — the invariant that lets any process anywhere
// execute any shard.
func TestPrepareBenchmarkDeterministic(t *testing.T) {
	cfg, br := testBenchmarkRun(t)
	br2, err := PrepareBenchmark(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(br.Plans, br2.Plans) {
		t.Error("PrepareBenchmark plans differ across calls")
	}
	if _, err := PrepareBenchmark(cfg, 5); err == nil {
		t.Error("out-of-range benchmark index must fail")
	}
}

func TestActivationOrderAndShards(t *testing.T) {
	_, br := testBenchmarkRun(t)
	order := ActivationOrder(br.Plans)
	if len(order) != len(br.Plans) {
		t.Fatalf("order has %d indices, want %d", len(order), len(br.Plans))
	}
	seen := map[int]bool{}
	for k := 1; k < len(order); k++ {
		a, b := br.Plans[order[k-1]], br.Plans[order[k]]
		if a.Activation > b.Activation {
			t.Fatalf("order not sorted by activation at %d", k)
		}
		if a.Activation == b.Activation && order[k-1] > order[k] {
			t.Fatalf("order not stable at %d", k)
		}
	}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}

	shards := SliceShards(order, 7)
	var flat []int
	for si, sh := range shards {
		if len(sh) == 0 || len(sh) > 7 {
			t.Fatalf("shard %d has %d indices", si, len(sh))
		}
		flat = append(flat, sh...)
	}
	if !reflect.DeepEqual(flat, order) {
		t.Error("shards do not concatenate back to the order")
	}
	if got := SliceShards(order, 0); len(got) != 1 || len(got[0]) != len(order) {
		t.Error("size<=0 must yield a single shard")
	}
	if got := SliceShards(nil, 4); got != nil {
		t.Error("empty order must yield no shards")
	}
}

// memSink is an in-memory ResultSink. failAt > 0 makes that Record call
// fail with errRecord; onRecord runs after every stored outcome with the
// running count.
type memSink struct {
	failAt   int
	onRecord func(n int)

	mu       sync.Mutex
	calls    int
	outcomes map[string]map[int]Outcome
}

var errRecord = errors.New("record failed")

func (s *memSink) Has(bench string, index int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.outcomes[bench][index]
	return ok
}

func (s *memSink) Record(bench string, index int, o Outcome) error {
	s.mu.Lock()
	s.calls++
	if s.calls == s.failAt {
		s.mu.Unlock()
		return errRecord
	}
	if s.outcomes == nil {
		s.outcomes = map[string]map[int]Outcome{}
	}
	if s.outcomes[bench] == nil {
		s.outcomes[bench] = map[int]Outcome{}
	}
	s.outcomes[bench][index] = o
	n := s.calls
	s.mu.Unlock()
	if s.onRecord != nil {
		s.onRecord(n)
	}
	return nil
}

func (s *memSink) Result() (*CampaignResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &CampaignResult{PerBenchmark: map[string]*Tally{}, Total: NewTally()}
	for bench, byIndex := range s.outcomes {
		tally := NewTally()
		for _, o := range byIndex {
			tally.Add(o)
		}
		res.PerBenchmark[bench] = tally
		res.Total.Merge(tally)
	}
	res.Normalize()
	return res, nil
}

// TestResumeCampaignStopsOnRecordError: a failed Record stops every worker
// from claiming more plans, so at most the workers already mid-run record
// after it, and ResumeCampaign returns the sink's error.
func TestResumeCampaignStopsOnRecordError(t *testing.T) {
	cfg, _ := testBenchmarkRun(t)
	cfg.Workers = 3
	sink := &memSink{failAt: 3}
	_, err := ResumeCampaign(context.Background(), cfg, sink)
	if !errors.Is(err, errRecord) {
		t.Fatalf("err = %v, want the sink's record error", err)
	}
	if max := 2 + cfg.Workers; sink.calls > max {
		t.Errorf("Record called %d times, want at most %d", sink.calls, max)
	}
}

// TestResumeCampaignCancelThenResume: cancelling mid-campaign returns
// context.Canceled with a partial sink, and resuming from that sink ends
// bit-identical to an uninterrupted RunCampaign.
func TestResumeCampaignCancelThenResume(t *testing.T) {
	cfg, _ := testBenchmarkRun(t)
	cfg.Workers = 2
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &memSink{onRecord: func(n int) {
		if n == 5 {
			cancel()
		}
	}}
	if _, err := ResumeCampaign(ctx, cfg, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if n := sink.calls; n < 5 || n >= cfg.InjectionsPerBenchmark {
		t.Fatalf("cancelled campaign recorded %d outcomes, want a partial campaign", n)
	}
	sink.onRecord = nil
	got, err := ResumeCampaign(context.Background(), cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed aggregates differ from RunCampaign:\ngot:  %+v\nwant: %+v", got.Total, want.Total)
	}
}

// TestResumeCampaignPrepareError: when the second benchmark cannot be
// prepared, the first is still recorded in full and the error is returned
// as PrepareBenchmark reports it; a record error in the first benchmark
// comes first.
func TestResumeCampaignPrepareError(t *testing.T) {
	cfg, _ := testBenchmarkRun(t)
	cfg.Benchmarks = append(cfg.Benchmarks, "no-such-benchmark")
	cfg.Workers = 2
	_, want := PrepareBenchmark(cfg, 1)
	if want == nil {
		t.Fatal("an unknown benchmark prepared")
	}
	sink := &memSink{}
	_, err := ResumeCampaign(context.Background(), cfg, sink)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
	for i := 0; i < cfg.InjectionsPerBenchmark; i++ {
		if !sink.Has("postmark", i) {
			t.Errorf("first benchmark's plan %d not recorded", i)
		}
	}

	failing := &memSink{failAt: cfg.InjectionsPerBenchmark - 1}
	if _, err := ResumeCampaign(context.Background(), cfg, failing); !errors.Is(err, errRecord) {
		t.Fatalf("err = %v, want the first benchmark's record error", err)
	}
}
