package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xentry/internal/core"
	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/store"
	"xentry/internal/wire"
)

// TestMain doubles as the worker-process entry point: the fleet tests
// re-exec this test binary with XENTRY_WORKER_ADDR set, turning it into a
// real xentry-worker process — same RunWorker loop, separate OS process,
// real TCP — without needing a built binary on the test machine.
func TestMain(m *testing.M) {
	if os.Getenv("XENTRY_WORKER_ADDR") != "" {
		workerProcessMain()
		return
	}
	os.Exit(m.Run())
}

func workerProcessMain() {
	name := os.Getenv("XENTRY_WORKER_NAME")
	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: os.Getenv("XENTRY_WORKER_ADDR"),
		Campaign:    os.Getenv("XENTRY_WORKER_CAMPAIGN"),
		Name:        name,
		// Small batches and fast flushes so batches interleave across
		// workers and a mid-flight kill actually lands mid-shard.
		BatchRecords:  4,
		FlushInterval: 5 * time.Millisecond,
		RetryInterval: 50 * time.Millisecond,
		MaxDials:      600,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+name+"] "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "[%s] fatal: %v\n", name, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func spawnWorker(t *testing.T, addr, campaign, name string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"XENTRY_WORKER_ADDR="+addr,
		"XENTRY_WORKER_CAMPAIGN="+campaign,
		"XENTRY_WORKER_NAME="+name,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn worker %s: %v", name, err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	return cmd
}

// fleetSpec builds the campaign three ways at once: the JSON spec workers
// derive their config from, and the identical CampaignConfig the
// coordinator (and the in-process reference run) uses. The campaign runs
// canneal unless benchmarks are named.
func fleetSpec(t *testing.T, id string, benchmarks ...string) (CampaignSpec, inject.CampaignConfig, []byte) {
	t.Helper()
	if len(benchmarks) == 0 {
		benchmarks = []string{"canneal"}
	}
	spec := CampaignSpec{
		ID:                     id,
		Benchmarks:             benchmarks,
		InjectionsPerBenchmark: 40,
		Activations:            48,
		Seed:                   29,
		Recovery:               "microreboot",
		Execution:              "fleet",
	}
	cfg, err := spec.CampaignConfig()
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, cfg, specJSON
}

// TestFleetDifferentialMultiProcess is the data-plane acceptance test: a
// campaign executed by three separate worker OS processes over the binary
// shard protocol produces a CampaignResult — and a CampaignReport — that
// DeepEqual the single-process inject.RunCampaign with the same seed.
func TestFleetDifferentialMultiProcess(t *testing.T) {
	spec, cfg, specJSON := fleetSpec(t, "fleet-diff")
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	e := &Engine{
		Store:        testStore(t, cfg, spec.ID),
		Fleet:        f,
		Spec:         specJSON,
		ShardSize:    5,
		ShardTimeout: 30 * time.Second,
	}
	var outcomes atomic.Int64
	workersSeen := map[int]bool{}
	var mu sync.Mutex
	e.OnEvent = func(ev Event) {
		if ev.Type == EventOutcome {
			outcomes.Add(1)
			mu.Lock()
			workersSeen[ev.Worker] = true
			mu.Unlock()
		}
	}

	procs := make([]*exec.Cmd, 3)
	for i := range procs {
		procs[i] = spawnWorker(t, f.Addr(), spec.ID, fmt.Sprintf("w%d", i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	got, err := e.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			t.Errorf("worker %d did not exit cleanly: %v", i, err)
		}
	}

	got.Normalize()
	want.Normalize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fleet CampaignResult diverges from in-process run:\n got %+v\nwant %+v", got.Total, want.Total)
	}
	gotRep := experiments.NewCampaignReport(got, cfg.Benchmarks)
	wantRep := experiments.NewCampaignReport(want, cfg.Benchmarks)
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Error("fleet CampaignReport diverges from in-process run")
	}
	if got.Total.Recovery.Attempts == 0 {
		t.Error("recovery engine never fired; differential did not exercise recovery stats")
	}
	if n := int(outcomes.Load()); n != cfg.InjectionsPerBenchmark {
		t.Errorf("observed %d fresh outcome events, want %d", n, cfg.InjectionsPerBenchmark)
	}
	st := f.Stats()
	if st.Records < int64(cfg.InjectionsPerBenchmark) {
		t.Errorf("fleet ingested %d records, want >= %d", st.Records, cfg.InjectionsPerBenchmark)
	}
	if st.Damaged != 0 {
		t.Errorf("fleet counted %d damaged records on a clean loopback", st.Damaged)
	}
}

// leaseSizes are the fleet lease sizes the differential tests run under:
// a pinned size small enough that every campaign spans several leases,
// and the derived size (unset), which gives each of these small
// benchmarks one lease.
var leaseSizes = []struct {
	name string
	size int
}{{"shard=5", 5}, {"shard=auto", 0}}

// TestFleetKillAndResumeBitIdentical kills one worker process mid-flight,
// interrupts the coordinator mid-campaign, then resumes from the WAL with
// the surviving workers — and the final result is still bit-identical to
// the uninterrupted in-process run.
func TestFleetKillAndResumeBitIdentical(t *testing.T) {
	for _, ls := range leaseSizes {
		t.Run(ls.name, func(t *testing.T) { testFleetKillAndResume(t, ls.size) })
	}
}

func testFleetKillAndResume(t *testing.T, shardSize int) {
	spec, cfg, specJSON := fleetSpec(t, "fleet-kill")
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	meta := store.Meta{
		CampaignID:  spec.ID,
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	openStore := func() *store.Store {
		st, err := store.Open(dir, meta, store.Options{MaxSegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	procs := make([]*exec.Cmd, 3)
	for i := range procs {
		procs[i] = spawnWorker(t, f.Addr(), spec.ID, fmt.Sprintf("w%d", i))
	}

	// Run 1: kill worker process 0 after the 6th outcome, cancel the
	// coordinator at the 14th. Outcome events come from the run's ingest
	// goroutine, so the 14th holds it until the run is released: no later
	// batch folds, however fast the lease holder streams, and the first
	// run stops mid-campaign (after 14 to 17 records, batches hold 4).
	st1 := openStore()
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	e1 := &Engine{Store: st1, Fleet: f, Spec: specJSON, ShardSize: shardSize, ShardTimeout: 10 * time.Second}
	var outcomes atomic.Int64
	e1.OnEvent = func(ev Event) {
		if ev.Type != EventOutcome {
			return
		}
		switch outcomes.Add(1) {
		case 6:
			procs[0].Process.Kill()
		case 14:
			run, _ := f.lookup(spec.ID)
			cancel1()
			if run != nil {
				<-run.done
			}
		}
	}
	if _, err := e1.Run(ctx1, cfg); err == nil {
		t.Fatal("interrupted coordinator run returned nil error")
	}
	firstCount := st1.TotalCount()
	if firstCount == 0 || firstCount >= cfg.InjectionsPerBenchmark {
		t.Fatalf("first run stored %d outcomes; the interruption did not land mid-campaign", firstCount)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 2: resume from the WAL. The two surviving worker processes are
	// still redialing and find the campaign again.
	st2 := openStore()
	defer st2.Close()
	e2 := &Engine{Store: st2, Fleet: f, Spec: specJSON, ShardSize: shardSize, ShardTimeout: 30 * time.Second}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel2()
	got, err := e2.Run(ctx2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs[1:] {
		if err := p.Wait(); err != nil {
			t.Errorf("surviving worker %d did not exit cleanly: %v", i+1, err)
		}
	}

	got.Normalize()
	want.Normalize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed fleet result diverges from uninterrupted run:\n got %+v\nwant %+v", got.Total, want.Total)
	}
	if !reflect.DeepEqual(experiments.NewCampaignReport(got, cfg.Benchmarks),
		experiments.NewCampaignReport(want, cfg.Benchmarks)) {
		t.Error("resumed fleet CampaignReport diverges from uninterrupted run")
	}
}

// TestFleetGoroutineWorkers runs RunWorker in-process (three goroutines,
// real TCP) — the fast differential that needs no process spawning, and
// the one the race detector can see through end to end.
func TestFleetGoroutineWorkers(t *testing.T) {
	for _, ls := range leaseSizes {
		t.Run(ls.name, func(t *testing.T) { testFleetGoroutineWorkers(t, ls.size) })
	}
}

func testFleetGoroutineWorkers(t *testing.T, shardSize int) {
	spec, cfg, specJSON := fleetSpec(t, "fleet-goroutine")
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := &Engine{
		Store:        testStore(t, cfg, spec.ID),
		Fleet:        f,
		Spec:         specJSON,
		ShardSize:    shardSize,
		ShardTimeout: 30 * time.Second,
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, WorkerOptions{
				Coordinator:   f.Addr(),
				Campaign:      spec.ID,
				Name:          fmt.Sprintf("g%d", i),
				BatchRecords:  4,
				FlushInterval: 5 * time.Millisecond,
				RetryInterval: 20 * time.Millisecond,
				MaxDials:      600,
			})
		}(i)
	}
	got, err := e.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	got.Normalize()
	want.Normalize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("goroutine fleet result diverges:\n got %+v\nwant %+v", got.Total, want.Total)
	}
}

// TestFleetLeasesAcrossBenchmarks: while one session holds benchmark 0's
// only shard, another session's lease request gets benchmark 1's shard,
// because the coordinator queues every benchmark up front instead of
// waiting at each boundary. Both raw sessions then drop, their leases
// requeue, and RunWorker goroutines finish a campaign that still equals
// the in-process run.
func TestFleetLeasesAcrossBenchmarks(t *testing.T) {
	spec, cfg, specJSON := fleetSpec(t, "fleet-cross", "canneal", "bzip2")
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	started := make(chan string, len(cfg.Benchmarks)) // one send per benchmark
	e := &Engine{
		Store:        testStore(t, cfg, spec.ID),
		Fleet:        f,
		Spec:         specJSON,
		ShardSize:    cfg.InjectionsPerBenchmark, // one shard per benchmark
		ShardTimeout: 30 * time.Second,
		OnEvent: func(ev Event) {
			if ev.Type == EventBenchmarkStart {
				started <- ev.Bench
			}
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var got *inject.CampaignResult
	var runErr error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		got, runErr = e.Run(ctx, cfg)
	}()
	defer func() { cancel(); <-ran }()
	awaitStart := func(bench string) {
		t.Helper()
		select {
		case b := <-started:
			if b != bench {
				t.Fatalf("benchmark_start for %s, want %s", b, bench)
			}
		case <-ran:
			t.Fatalf("campaign ended before %s started: %v", bench, runErr)
		case <-ctx.Done():
			t.Fatalf("%s never started", bench)
		}
	}
	hello := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: spec.ID})
	lease := func(c *rawConn, benchAt int) {
		t.Helper()
		if got := c.replyType(hello); got != wire.MsgWelcome {
			t.Fatalf("hello: reply type %d, want welcome", got)
		}
		m, err := c.roundTrip(wire.AppendLeaseReq(nil))
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != wire.MsgLease {
			t.Fatalf("lease request: reply type %d, want a lease on benchmark %d", m.Type, benchAt)
		}
		if m.Lease.BenchAt != benchAt || m.Lease.Bench != cfg.Benchmarks[benchAt] || len(m.Lease.Indices) != cfg.InjectionsPerBenchmark {
			t.Fatalf("leased %s (benchmark %d, %d indices), want all of benchmark %d",
				m.Lease.Bench, m.Lease.BenchAt, len(m.Lease.Indices), benchAt)
		}
	}

	awaitStart("canneal")
	a := dialRaw(t, f.Addr())
	lease(a, 0)
	awaitStart("bzip2")
	b := dialRaw(t, f.Addr())
	lease(b, 1)
	a.conn.Close()
	b.conn.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, WorkerOptions{
				Coordinator:   f.Addr(),
				Campaign:      spec.ID,
				Name:          fmt.Sprintf("x%d", i),
				FlushInterval: 5 * time.Millisecond,
				RetryInterval: 20 * time.Millisecond,
				MaxDials:      600,
			})
		}(i)
	}
	<-ran
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if n := f.Stats().Requeues; n != 2 {
		t.Errorf("%d requeues, want 2 (one per dropped session)", n)
	}
	got.Normalize()
	want.Normalize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cross-benchmark fleet result diverges:\n got %+v\nwant %+v", got.Total, want.Total)
	}
}

// TestFleetLeaseSizes leases a 2 × 2,000-plan campaign to raw sessions
// that never complete a lease, so the queue drains through grants alone.
// Under either size rule the leases take the benchmarks in order, each
// benchmark's leases concatenate to its activation order and number 0,
// 1, 2, …, and every lease has the rule's size.
//   - ShardSize = 64: the leases are exactly the consecutive 64-plan
//     chunks, as pre-sliced shards were (32 per benchmark, 64 in all).
//   - Derived size, two sessions: ⌈Q/4⌉ plans for Q plans not yet
//     leased, at least min(64, plans left in the benchmark), at most
//     those; at most 16 leases in all.
func TestFleetLeaseSizes(t *testing.T) {
	const injections = 2000
	for _, tc := range []struct {
		name      string
		shardSize int
		sessions  int
	}{
		{"shard=64", 64, 1},
		{"shard=auto", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, cfg, _ := fleetSpec(t, "lease-sizes", "canneal", "bzip2")
			spec.InjectionsPerBenchmark = injections
			cfg.InjectionsPerBenchmark = injections
			specJSON, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFleet("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			started := make(chan struct{}, len(cfg.Benchmarks))
			e := &Engine{Store: testStore(t, cfg, spec.ID), Fleet: f, Spec: specJSON, ShardSize: tc.shardSize,
				OnEvent: func(ev Event) {
					if ev.Type == EventBenchmarkStart {
						started <- struct{}{}
					}
				}}
			ctx, cancel := context.WithCancel(context.Background())
			ran := make(chan error, 1)
			go func() {
				_, err := e.Run(ctx, cfg)
				ran <- err
			}()
			defer func() { cancel(); <-ran }()
			// Every benchmark is queued before the first lease request.
			for range cfg.Benchmarks {
				select {
				case <-started:
				case err := <-ran:
					t.Fatalf("campaign ended before it was queued: %v", err)
				}
			}

			hello := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: spec.ID})
			sessions := make([]*rawConn, tc.sessions)
			for i := range sessions {
				sessions[i] = dialRaw(t, f.Addr())
				if got := sessions[i].replyType(hello); got != wire.MsgWelcome {
					t.Fatalf("hello: reply type %d, want welcome", got)
				}
			}
			var leases []*wire.Lease
		drain:
			for {
				for _, c := range sessions {
					m, err := c.roundTrip(wire.AppendLeaseReq(nil))
					if err != nil {
						t.Fatal(err)
					}
					if m.Type == wire.MsgNoWork {
						break drain
					}
					if m.Type != wire.MsgLease {
						t.Fatalf("lease request: reply type %d", m.Type)
					}
					leases = append(leases, m.Lease)
				}
			}

			queued := injections * len(cfg.Benchmarks)
			left := make([]int, len(cfg.Benchmarks))
			shards := make([]int, len(cfg.Benchmarks))
			carved := make([][]int, len(cfg.Benchmarks))
			for bi := range cfg.Benchmarks {
				left[bi] = injections
			}
			for n, l := range leases {
				bi := l.BenchAt
				if bi < 0 || bi >= len(cfg.Benchmarks) || l.Bench != cfg.Benchmarks[bi] {
					t.Fatalf("lease %d names benchmark %q at %d", n, l.Bench, bi)
				}
				if l.Shard != shards[bi] {
					t.Errorf("lease %d: %s shard %d, want %d", n, l.Bench, l.Shard, shards[bi])
				}
				shards[bi]++
				if bi > 0 && left[bi-1] > 0 {
					t.Errorf("lease %d: %s leased before %s ran out", n, l.Bench, cfg.Benchmarks[bi-1])
				}
				// The size rule, with Q the plans no lease holds yet.
				want := tc.shardSize
				if want == 0 {
					w := 2 * tc.sessions
					want = max((queued+w-1)/w, fleetMinLease)
				}
				want = min(want, left[bi])
				if size := len(l.Indices); size != want {
					t.Errorf("lease %d: %d plans with %d queued and %d left in %s, want %d",
						n, size, queued, left[bi], l.Bench, want)
				}
				left[bi] -= len(l.Indices)
				queued -= len(l.Indices)
				carved[bi] = append(carved[bi], l.Indices...)
			}
			for bi := range cfg.Benchmarks {
				plans, err := inject.PreparePlans(cfg, bi)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(carved[bi], inject.ActivationOrder(plans)) {
					t.Errorf("%s: leases do not concatenate to the activation order", cfg.Benchmarks[bi])
				}
			}
			want := 2 * ((injections + 63) / 64)
			if tc.shardSize == 0 {
				want = 16
			}
			if len(leases) > want {
				t.Errorf("%d leases, want at most %d", len(leases), want)
			}
			if n := f.Stats().Leases; n != int64(len(leases)) {
				t.Errorf("fleet counted %d leases, sessions got %d", n, len(leases))
			}
			t.Logf("%d leases", len(leases))
		})
	}
}

// TestFleetRequeuedLeaseCarvedAgain drives one run's queue directly, with
// no session joined (W = 1): a failed lease rejoins the queue at its tail
// with its missing plans and one attempt spent, and is carved again by
// the same size rule. Its first piece keeps the lease's number, later
// pieces take the benchmark's next numbers, every piece inherits the
// attempt count, and each carved piece counts as outstanding.
func TestFleetRequeuedLeaseCarvedAgain(t *testing.T) {
	cfg := inject.CampaignConfig{Benchmarks: []string{"canneal"}, InjectionsPerBenchmark: 1000}
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := newFleetRun(&Engine{Store: testStore(t, cfg, "requeue"), Fleet: f, Spec: []byte("{}")}, cfg, time.Minute, 3)
	order := make([]int, cfg.InjectionsPerBenchmark)
	for i := range order {
		order[i] = i
	}
	run.enqueueBench(0, "canneal", order)

	type carved struct{ shard, attempt, first, n int }
	grant := func(wid int) (uint64, carved) {
		t.Helper()
		l := run.grantLease(wid)
		if l == nil {
			t.Fatal("queue ran dry")
		}
		return l.ID, carved{l.Shard, run.leases[l.ID].shard.attempt, l.Indices[0], len(l.Indices)}
	}
	failed, got := grant(1)
	if want := (carved{0, 1, 0, 500}); got != want { // ⌈1000/2⌉
		t.Fatalf("first lease %+v, want %+v", got, want)
	}
	if _, got := grant(2); got != (carved{1, 1, 500, 250}) {
		t.Fatalf("second lease %+v, want %+v", got, carved{1, 1, 500, 250})
	}
	run.process(ingestItem{kind: itemFail, lease: failed, wid: 1, errMsg: "injected failure"})
	// Queue: plans 750-999 (fresh), then 0-499 (the failed lease), Q = 750.
	for i, want := range []carved{
		{2, 1, 750, 250}, // min(⌈750/2⌉, 250 left in the head run)
		{0, 2, 0, 250},   // ⌈500/2⌉, keeping the failed lease's number
		{3, 2, 250, 125}, // ⌈250/2⌉
		{4, 2, 375, 64},  // ⌈125/2⌉ = 63, floored at 64
		{5, 2, 439, 61},  // what is left
	} {
		if _, got := grant(2); got != want {
			t.Errorf("lease %d after the requeue: %+v, want %+v", i, got, want)
		}
	}
	if l := run.grantLease(2); l != nil {
		t.Errorf("drained queue granted lease %d", l.ID)
	}
	if run.queued != 0 || run.outstanding != len(run.leases) || len(run.leases) != 6 {
		t.Errorf("queued %d, outstanding %d, leases %d; want 0, 6, 6", run.queued, run.outstanding, len(run.leases))
	}
}

// TestFleetHostileRecordsCount sends a batch whose Records field claims an
// absurd count over a tiny block: the sender-controlled count is only a
// capacity hint, so the coordinator must clamp it to what the block can
// hold — not panic in makeslice or attempt a multi-TB allocation — and the
// session must stay healthy.
func TestFleetHostileRecordsCount(t *testing.T) {
	cfg := inject.CampaignConfig{Benchmarks: []string{"canneal"}, InjectionsPerBenchmark: 8}
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := &Engine{Store: testStore(t, cfg, "fleet-hostile"), Fleet: f, Spec: []byte("{}")}
	run := newFleetRun(e, cfg, time.Minute, 3)
	if err := f.start(run); err != nil {
		t.Fatal(err)
	}
	defer f.release(run)
	run.serveModel(nil)

	c := dialRaw(t, f.Addr())
	if got := c.replyType(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: "fleet-hostile"})); got != wire.MsgWelcome {
		t.Fatalf("expected welcome, got type %d", got)
	}
	o := synthOutcome(1)
	block, _ := wire.AppendRecordFrame(nil, nil, "canneal", 1, &o)
	hostile := wire.AppendBatch(nil, wire.Batch{Lease: 1, Records: 1 << 40, Block: block})
	if got := c.replyType(hostile); got != wire.MsgBatchAck {
		t.Fatalf("expected batch ack after hostile record count, got type %d", got)
	}
	// The session survived the hostile frame: a normal request still works.
	if got := c.replyType(wire.AppendLeaseReq(nil)); got != wire.MsgNoWork {
		t.Fatalf("expected no-work, got type %d", got)
	}
}

// rawConn drives the fleet protocol by hand: one frame out, one back.
type rawConn struct {
	conn net.Conn
	r    *wire.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{conn: conn, r: wire.NewReader(conn)}
}

// roundTrip sends one frame and decodes the reply. An error means the
// coordinator closed the session.
func (c *rawConn) roundTrip(frame []byte) (wire.Msg, error) {
	if _, err := c.conn.Write(frame); err != nil {
		return wire.Msg{}, err
	}
	payload, err := c.r.Next()
	if err != nil {
		return wire.Msg{}, err
	}
	return wire.DecodeMsg(payload)
}

// replyType is the reply's message type, or 0 once the coordinator has
// closed the session.
func (c *rawConn) replyType(frame []byte) wire.MsgType {
	m, err := c.roundTrip(frame)
	if err != nil {
		return 0
	}
	return m.Type
}

// TestFleetCampaignStates pins how the fleet answers a campaign in each
// lifecycle state: a new Hello, a LeaseReq on a session opened while the
// campaign was active, and RunWorker limited to two dials. Only a done
// campaign ends a worker with nil. A stopped campaign is refused like an
// unknown one, so its workers keep redialing into the resumed run.
func TestFleetCampaignStates(t *testing.T) {
	const closed wire.MsgType = 0
	cases := []struct {
		state     string
		hello     wire.MsgType // reply to a new Hello
		lease     wire.MsgType // reply to a LeaseReq on the open session
		workerErr string       // substring of RunWorker's error ("" = nil)
	}{
		{"unknown", wire.MsgError, closed, "unknown campaign"},
		{"active", wire.MsgWelcome, wire.MsgNoWork, context.Canceled.Error()},
		{"stopped", wire.MsgError, wire.MsgError, "unknown campaign"},
		{"done", wire.MsgDone, wire.MsgDone, ""},
	}
	hello := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: "states"})
	for _, tc := range cases {
		t.Run(tc.state, func(t *testing.T) {
			cfg := inject.CampaignConfig{Benchmarks: []string{"canneal"}, InjectionsPerBenchmark: 8}
			f, err := NewFleet("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spec := []byte(`{"benchmarks":["canneal"],"injections_per_benchmark":8}`)
			run := newFleetRun(&Engine{Store: testStore(t, cfg, "states"), Fleet: f, Spec: spec}, cfg, time.Minute, 3)
			if tc.state != "unknown" {
				if err := f.start(run); err != nil {
					t.Fatal(err)
				}
				run.serveModel(nil)
			}
			session := dialRaw(t, f.Addr())
			if got := session.replyType(hello); (got == wire.MsgWelcome) != (tc.state != "unknown") {
				t.Fatalf("hello while active: reply type %d", got)
			}
			switch tc.state {
			case "active":
				defer f.release(run)
			case "done":
				run.finish()
				fallthrough
			case "stopped":
				f.release(run)
			}

			if got := dialRaw(t, f.Addr()).replyType(hello); got != tc.hello {
				t.Errorf("new hello: reply type %d, want %d", got, tc.hello)
			}
			if got := session.replyType(wire.AppendLeaseReq(nil)); got != tc.lease {
				t.Errorf("lease request on open session: reply type %d, want %d", got, tc.lease)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.state == "active" {
				// An active campaign with no work keeps the worker polling:
				// stop it once its session joins the two raw ones.
				go func() {
					for f.Stats().Workers < 3 {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
			}
			err = RunWorker(ctx, WorkerOptions{Coordinator: f.Addr(), Campaign: "states",
				MaxDials: 2, RetryInterval: time.Millisecond})
			switch {
			case tc.workerErr == "" && err != nil:
				t.Errorf("RunWorker = %v, want nil", err)
			case tc.workerErr != "" && (err == nil || !strings.Contains(err.Error(), tc.workerErr)):
				t.Errorf("RunWorker = %v, want an error containing %q", err, tc.workerErr)
			}
		})
	}
}

// TestFleetTombstones: resubmitting a completed campaign clears its
// tombstone, and the set keeps only the newest fleetTombstones ids.
func TestFleetTombstones(t *testing.T) {
	cfg := inject.CampaignConfig{Benchmarks: []string{"canneal"}, InjectionsPerBenchmark: 8}
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := &Engine{Store: testStore(t, cfg, "again"), Fleet: f, Spec: []byte("{}")}
	f.unregister("again", true)
	if err := f.register(newFleetRun(e, cfg, time.Minute, 3)); err != nil {
		t.Fatal(err)
	}
	if run, finished := f.lookup("again"); run == nil || finished {
		t.Errorf("resubmitted campaign: lookup = (%v, %v), want the live run", run, finished)
	}
	f.unregister("again", false)
	if _, finished := f.lookup("again"); finished {
		t.Error("a stopped resubmission left a tombstone")
	}
	for i := 0; i <= fleetTombstones; i++ {
		f.unregister(fmt.Sprintf("c%d", i), true)
	}
	if _, finished := f.lookup("c0"); finished {
		t.Error("oldest tombstone was not evicted")
	}
	if _, finished := f.lookup(fmt.Sprint("c", fleetTombstones)); !finished || len(f.finished) != fleetTombstones {
		t.Errorf("tombstones: newest finished = %v, %d kept, want true and %d", finished, len(f.finished), fleetTombstones)
	}
}

// TestFleetShardFailExhaustsAttempts: a worker that answers every lease
// with ShardFail makes the campaign fail after MaxAttempts with the
// shard's error. The fleet is the only scheduler with an attempt budget.
func TestFleetShardFailExhaustsAttempts(t *testing.T) {
	spec, cfg, specJSON := fleetSpec(t, "fleet-fail")
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := &Engine{Store: testStore(t, cfg, spec.ID), Fleet: f, Spec: specJSON, MaxAttempts: 2}
	var wg sync.WaitGroup
	defer wg.Wait()
	failer := func(c *rawConn) {
		defer wg.Done()
		m, err := c.roundTrip(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: spec.ID}))
		for err == nil && m.Type != wire.MsgError && m.Type != wire.MsgDone {
			switch m.Type {
			case wire.MsgLease:
				m, err = c.roundTrip(wire.AppendShardFail(nil, wire.ShardFail{Lease: m.Lease.ID, Err: "injected failure"}))
			case wire.MsgNoWork:
				time.Sleep(time.Millisecond)
				fallthrough
			default:
				m, err = c.roundTrip(wire.AppendLeaseReq(nil))
			}
		}
	}
	// The run is registered before its first benchmark starts.
	e.OnEvent = func(ev Event) {
		if ev.Type == EventBenchmarkStart {
			wg.Add(1)
			go failer(dialRaw(t, f.Addr()))
		}
	}
	_, err = e.Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "failed after 2 attempts") || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("campaign error = %v, want the shard's error after 2 attempts", err)
	}
	if n := f.Stats().Leases; n != 2 {
		t.Errorf("granted %d leases, want 2 (one per attempt)", n)
	}
}

// TestFleetIngestAllocFree: once warm, a batch's trip through its session
// (CRC walk, decode, queue, ack) and the ingest goroutine's fold (group
// commit, lease accounting) allocates nothing, because the ingest side
// hands each batch's block copy and entries back for the next batch.
// BenchmarkFleetIngest prices the same path over TCP.
func TestFleetIngestAllocFree(t *testing.T) {
	const perBatch = 16
	cfg := inject.CampaignConfig{Benchmarks: []string{"canneal"}, InjectionsPerBenchmark: 64 * perBatch}
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// No pass rotates the segment or syncs it, as in BenchmarkFleetIngest:
	// both are per segment or per SyncEveryBytes, not per batch.
	st, err := store.Open(t.TempDir(), store.Meta{CampaignID: "ingest-alloc", Benchmarks: cfg.Benchmarks,
		Injections: cfg.InjectionsPerBenchmark}, store.Options{MaxSegmentBytes: 1 << 30, SyncEveryBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The run is not started: the test is its ingest goroutine.
	run := newFleetRun(&Engine{Store: st, Fleet: f, Spec: []byte("{}"), ShardSize: cfg.InjectionsPerBenchmark}, cfg, time.Minute, 3)
	order := make([]int, cfg.InjectionsPerBenchmark)
	for i := range order {
		order[i] = i
	}
	run.enqueueBench(0, "canneal", order)
	l := run.grantLease(1)
	sess := &fleetSession{fleet: f, run: run, wid: 1, dec: wire.NewDecoder()}
	// One batch frame per pass, each of fresh records, so every pass
	// writes the WAL.
	var batches []wire.Batch
	var scratch []byte
	for i := 0; i < len(l.Indices); i += perBatch {
		var block []byte
		for _, idx := range l.Indices[i : i+perBatch] {
			o := synthOutcome(idx)
			block, scratch = wire.AppendRecordFrame(block, scratch, "canneal", idx, &o)
		}
		batches = append(batches, wire.Batch{Lease: l.ID, Records: perBatch, Block: block})
	}
	var out []byte
	pass := func() {
		var err error
		if out, err = sess.batch(out[:0], &batches[0]); err != nil {
			t.Fatal(err)
		}
		run.process(<-run.ingest)
		batches = batches[1:]
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Errorf("a warm ingest pass allocates %.0f times, want 0", n)
	}
	if got, want := st.TotalCount(), 22*perBatch; got != want {
		t.Errorf("store holds %d records after 22 passes, want %d", got, want)
	}
}

// --- BenchmarkFleetIngest -------------------------------------------------

// benchShard is one shard's pre-encoded traffic: the exact frames a worker
// would stream, chunked into batch blocks, plus the shard tally the
// coordinator's cross-check expects.
type benchShard struct {
	indices []int
	blocks  [][]byte
	counts  []uint64
	claimed uint64
	tally   []byte
}

// synthOutcome fabricates a varied outcome. Fidelity does not matter —
// both the shard tally and the coordinator fold see the post-roundtrip
// record — but variety does: it exercises the interner and the map folds.
func synthOutcome(i int) inject.Outcome {
	o := inject.Outcome{DetectedAt: -1}
	o.Activated = i%4 != 0
	o.Manifested = o.Activated && i%3 == 0
	if o.Manifested && i%2 == 0 {
		o.Detected = core.TechHWException
		o.DetectedAt = i % 48
		o.Latency = uint64(i % 977)
	}
	o.LongLatency = o.Manifested && i%7 == 0
	o.Symbol = [3]string{"vmx_handle_exit", "ept_violation", "apic_timer"}[i%3]
	return o
}

func buildBenchShards(b *testing.B, bench string, shards, shardSize, batchRecords int) []benchShard {
	b.Helper()
	dec := wire.NewDecoder()
	out := make([]benchShard, shards)
	var scratch []byte
	for si := range out {
		sh := &out[si]
		sh.indices = make([]int, shardSize)
		tally := inject.NewTally()
		var block []byte
		count := 0
		flush := func() {
			if count == 0 {
				return
			}
			sh.blocks = append(sh.blocks, block)
			sh.counts = append(sh.counts, uint64(count))
			block, count = nil, 0
		}
		for j := 0; j < shardSize; j++ {
			idx := si*shardSize + j
			sh.indices[j] = idx
			o := synthOutcome(idx)
			start := len(block)
			block, scratch = wire.AppendRecordFrame(block, scratch, bench, idx, &o)
			// Fold the decoded record, exactly like the coordinator will.
			payload, _, err := wire.SplitFrame(block[start:])
			if err != nil {
				b.Fatal(err)
			}
			_, _, ro, err := dec.DecodeRecord(payload)
			if err != nil {
				b.Fatal(err)
			}
			tally.Add(ro)
			count++
			if count >= batchRecords {
				flush()
			}
		}
		flush()
		sh.claimed = uint64(shardSize)
		tally.Normalize()
		sh.tally = wire.AppendTally(nil, tally)
	}
	return out
}

// benchFleetWorker replays pre-encoded shard traffic over a real TCP
// connection: lease, stream the shard's batch blocks, close with the
// shard tally, repeat until the coordinator says Done.
func benchFleetWorker(b *testing.B, addr, campaign string, pre []benchShard) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetNoDelay(true)
	r := wire.NewReader(conn)
	roundTrip := func(frame []byte) (wire.Msg, error) {
		if _, err := conn.Write(frame); err != nil {
			return wire.Msg{}, err
		}
		payload, err := r.Next()
		if err != nil {
			return wire.Msg{}, err
		}
		return wire.DecodeMsg(payload)
	}
	m, err := roundTrip(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: campaign}))
	if err != nil {
		return err
	}
	if m.Type != wire.MsgWelcome {
		return fmt.Errorf("expected welcome, got %d", m.Type)
	}
	var buf []byte
	for {
		m, err := roundTrip(wire.AppendLeaseReq(buf[:0]))
		if err != nil {
			return err
		}
		switch m.Type {
		case wire.MsgDone:
			return nil
		case wire.MsgNoWork:
			time.Sleep(time.Millisecond)
		case wire.MsgLease:
			sh := &pre[m.Lease.Shard]
			lease := m.Lease.ID
			for bi, blk := range sh.blocks {
				buf = wire.AppendBatch(buf[:0], wire.Batch{Lease: lease, Records: sh.counts[bi], Block: blk})
				am, err := roundTrip(buf)
				if err != nil {
					return err
				}
				if am.Type != wire.MsgBatchAck {
					return fmt.Errorf("expected batch ack, got %d", am.Type)
				}
			}
			buf = wire.AppendShardDone(buf[:0], wire.ShardDone{Lease: lease, Claimed: sh.claimed, Tally: sh.tally})
			if am, err := roundTrip(buf); err != nil {
				return err
			} else if am.Type != wire.MsgBatchAck {
				return fmt.Errorf("expected shard-done ack, got %d", am.Type)
			}
		default:
			return fmt.Errorf("unexpected message %d", m.Type)
		}
	}
}

// BenchmarkFleetIngest measures coordinator ingest throughput end to end:
// 10 workers over TCP loopback stream pre-encoded batches through the full
// verify → decode → group-commit → lease-accounting → cross-check path
// into a real WAL store. Reported as inj/s.
func BenchmarkFleetIngest(b *testing.B) {
	const (
		workers      = 10
		shardSize    = 4096
		shardCount   = 48
		batchRecords = 512
		bench        = "canneal"
	)
	total := shardSize * shardCount
	pre := buildBenchShards(b, bench, shardCount, shardSize, batchRecords)
	// The pinned lease size carves the queue into exactly the pre-encoded
	// shards, numbered as pre is indexed.
	var order []int
	for i := range pre {
		order = append(order, pre[i].indices...)
	}
	cfg := inject.CampaignConfig{Benchmarks: []string{bench}, InjectionsPerBenchmark: total}

	var elapsed time.Duration
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir(), store.Meta{
			CampaignID: "bench-fleet", Benchmarks: cfg.Benchmarks, Injections: total,
		}, store.Options{MaxSegmentBytes: 1 << 30, SyncEveryBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		f, err := NewFleet("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		e := &Engine{Store: st, Fleet: f, Spec: []byte("{}"), ShardSize: shardSize}
		run := newFleetRun(e, cfg, time.Minute, 3)
		if err := f.start(run); err != nil {
			b.Fatal(err)
		}
		run.serveModel(nil)
		run.enqueueBench(0, bench, slices.Clone(order))

		b.StartTimer()
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = benchFleetWorker(b, f.Addr(), "bench-fleet", pre)
			}(w)
		}
		if err := run.wait(context.Background()); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		run.finish()
		wg.Wait()
		b.StopTimer()
		for w, werr := range errs {
			if werr != nil {
				b.Fatalf("worker %d: %v", w, werr)
			}
		}
		if got := st.TotalCount(); got != total {
			b.Fatalf("store folded %d records, want %d", got, total)
		}
		f.release(run)
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		f.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/elapsed.Seconds(), "inj/s")
	}
}
