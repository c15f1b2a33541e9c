package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/server"
	"xentry/internal/wire"
)

// Fleet worker settings: a worker that dials before the campaign is
// registered is refused and redials, so the interval is short; MaxDials
// bounds that loop so a worker can never redial a finished campaign
// forever.
const (
	redialInterval = 10 * time.Millisecond
	maxDials       = 500
)

// runFleetWAL submits campaign-gpr's identity with Client.RunToCompletion
// to an in-process Server whose loopback Fleet leases shards to nproc
// RunWorker goroutines and group-commits their batches to a WAL store.
// Every iteration gets a fresh data directory and fresh ports, and its
// workers are cancelled and joined once the campaign is done.
func runFleetWAL(e *env, clk *clock, tr *tracer) (*output, error) {
	root := tr.begin("iteration", 0, -1)
	defer tr.finish(root)
	dir, err := e.tempDir("fleet")
	if err != nil {
		return nil, err
	}
	if tr == nil {
		defer os.RemoveAll(dir)
	}
	fleet, err := server.NewFleet("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	srv, err := server.NewServer(server.Config{DataDir: dir, Fleet: fleet})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &server.Client{Base: hs.URL, HTTPClient: &http.Client{Transport: transport}}

	spec := servedSpec(e, "fleet-wal")
	spec.Execution = "fleet"
	// The traced run's store probe replays the campaign directory, then
	// removes it.
	out := &output{storeDir: filepath.Join(dir, spec.ID), cleanup: dir}
	sink := newOutcomeSink()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nw := runtime.GOMAXPROCS(0)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if tr == nil {
				errs[i] = server.RunWorker(ctx, server.WorkerOptions{
					Coordinator:   fleet.Addr(),
					Campaign:      spec.ID,
					Name:          fmt.Sprintf("w%d", i),
					RetryInterval: redialInterval,
					MaxDials:      maxDials,
				})
				return
			}
			errs[i] = tracedWorker(ctx, fleet.Addr(), spec.ID, i+1, tr, root, sink)
		}(i)
	}
	var rep *experiments.CampaignReport
	if tr == nil {
		rep, err = client.RunToCompletion(ctx, spec, func(ev server.Event) {
			if ev.Type == server.EventOutcome {
				clk.setupDone()
			}
		})
		if err != nil && stillRunning(err) {
			rep, err = report(client, spec.ID)
		}
	} else {
		rep, err = tracedClient(ctx, client, spec, tr, root, clk)
	}
	// The campaign is settled (or failed): stop and join every worker
	// before the fleet and server close under them.
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, fmt.Errorf("fleet worker %d: %w", i, werr)
		}
	}
	stats := fleet.Stats()
	if stats.Requeues > 0 || stats.Damaged > 0 {
		return nil, fmt.Errorf("fleet requeued %d shards and saw %d damaged records", stats.Requeues, stats.Damaged)
	}
	cfg := campaignConfig(spec, nil)
	if err := checkCampaign(rep.Result, cfg); err != nil {
		return nil, err
	}
	out.fleet = &stats
	out.injections = rep.Injections
	out.digest, err = reportDigest(rep)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		out.cfg = campaignConfig(spec, sink.model)
		out.result, out.prune, out.recovery = rep.Result, rep.Result.Total, rep.Result.Total
		out.outcomes, out.samples = sink.outcomes, sink.samples
	}
	return out, nil
}

// tracedClient is Client.RunToCompletion decomposed into Submit,
// StreamEvents and Report, with the shard events paired into spans.
func tracedClient(ctx context.Context, c *server.Client, spec server.CampaignSpec, tr *tracer, root int32, clk *clock) (*experiments.CampaignReport, error) {
	start := time.Now()
	var st *server.CampaignStatus
	if err := tr.do("server.submit", 0, root, func() (err error) { st, err = c.Submit(spec); return }); err != nil {
		return nil, err
	}
	type shardKey struct {
		bench          string
		shard, attempt int
	}
	open := map[shardKey]time.Time{}
	first := false
	stream := tr.begin("server.stream", 0, root)
	err := c.StreamEvents(ctx, st.ID, func(ev server.Event) {
		now := time.Now()
		switch ev.Type {
		case server.EventOutcome:
			clk.setupDone()
			if !first {
				first = true
				tr.add("server.first_outcome", 0, stream, -1, start, now)
			}
		case server.EventShardStart:
			open[shardKey{ev.Bench, ev.Shard, ev.Attempt}] = now
		case server.EventShardDone:
			k := shardKey{ev.Bench, ev.Shard, ev.Attempt}
			if t0, ok := open[k]; ok {
				tr.add("fleet.shard", 0, stream, -1, t0, now)
				delete(open, k)
			}
		}
	})
	tr.finish(stream)
	if err != nil {
		return nil, err
	}
	var rep *experiments.CampaignReport
	err = tr.do("server.report", 0, root, func() (err error) { rep, err = report(c, st.ID); return })
	return rep, err
}

// report fetches a finished campaign's report. The server emits
// campaign_done from inside Engine.Run, before it marks the campaign done,
// so a Report sent as soon as that event arrives can get 409 "still
// running"; that reply alone is retried, briefly.
func report(c *server.Client, id string) (*experiments.CampaignReport, error) {
	for i := 0; ; i++ {
		rep, err := c.Report(id)
		if err == nil || i == 200 || !stillRunning(err) {
			return rep, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stillRunning(err error) bool { return strings.Contains(err.Error(), "still running") }

// outcomeSink collects the traced workers' outcomes for the layer probes.
type outcomeSink struct {
	mu       sync.Mutex
	outcomes map[string][]inject.Outcome
	model    *ml.Tree
	samples  int
}

func newOutcomeSink() *outcomeSink {
	return &outcomeSink{outcomes: map[string][]inject.Outcome{}}
}

func (s *outcomeSink) put(bench string, n, index int, o inject.Outcome) {
	s.mu.Lock()
	if s.outcomes[bench] == nil {
		s.outcomes[bench] = make([]inject.Outcome, n)
	}
	s.outcomes[bench][index] = o
	s.mu.Unlock()
}

// tracedWorker is server.RunWorker decomposed into the public primitives
// it composes — the wire protocol messages, the spec-derived training,
// PrepareBenchmark, Worker.RunOne and Tally.Add — with a span around each
// layer. It keeps RunWorker's batching defaults (256 records or 256 KiB,
// flushed at least every 50 ms) and its slowdown pause.
func tracedWorker(ctx context.Context, addr, campaign string, lane int, tr *tracer, parent int32, sink *outcomeSink) error {
	const (
		batchRecords  = 256
		batchBytes    = 256 << 10
		flushInterval = 50 * time.Millisecond
	)
	ws := tr.begin("fleet.worker", lane, parent)
	defer tr.finish(ws)
	var conn net.Conn
	var r *wire.Reader
	roundTrip := func(frame []byte) (wire.Msg, error) {
		if _, err := conn.Write(frame); err != nil {
			return wire.Msg{}, err
		}
		payload, err := r.Next()
		if err != nil {
			return wire.Msg{}, err
		}
		m, err := wire.DecodeMsg(payload)
		if err != nil {
			return wire.Msg{}, err
		}
		if m.Type == wire.MsgError {
			return wire.Msg{}, fmt.Errorf("coordinator refused: %s", m.Error.Err)
		}
		return m, nil
	}
	var spec []byte
	for dials := 1; ; dials++ {
		d := net.Dialer{Timeout: 10 * time.Second}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return err
		}
		conn, r = c, wire.NewReader(c)
		m, err := roundTrip(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: campaign, Worker: fmt.Sprintf("t%d", lane)}))
		if err == nil && m.Type == wire.MsgWelcome {
			spec = append([]byte(nil), m.Welcome.Spec...)
			break
		}
		c.Close()
		if dials >= maxDials {
			return fmt.Errorf("no welcome after %d dials: %v", dials, err)
		}
		select {
		case <-time.After(redialInterval):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	var sp server.CampaignSpec
	if err := json.Unmarshal(spec, &sp); err != nil {
		return err
	}
	trained, err := train(trainScale(sp), tr, lane, ws)
	if err != nil {
		return err
	}
	model := trained.Best()
	sink.mu.Lock()
	sink.model, sink.samples = model, trained.TrainSamples+trained.TestSamples
	sink.mu.Unlock()
	cfg := campaignConfig(sp, model).Normalized()

	benchAt := -1
	var br *inject.BenchmarkRun
	var w *inject.Worker
	var req, block, scratch, msg []byte
	for {
		req = wire.AppendLeaseReq(req[:0])
		m, err := roundTrip(req)
		if err != nil {
			return err
		}
		switch m.Type {
		case wire.MsgDone:
			return nil
		case wire.MsgNoWork:
			select {
			case <-time.After(time.Duration(m.NoWork.RetryMillis) * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		case wire.MsgLease:
		default:
			return fmt.Errorf("unexpected message type %d to lease request", m.Type)
		}
		l := m.Lease
		if l.BenchAt != benchAt {
			if err := tr.do("inject.prepare", lane, ws, func() (err error) { br, err = inject.PrepareBenchmark(cfg, l.BenchAt); return }); err != nil {
				return err
			}
			benchAt, w = l.BenchAt, br.Runner.NewWorker()
		}
		ls := tr.begin("fleet.lease", lane, ws)
		tally := inject.NewTally()
		count, claimed := 0, 0
		lastFlush := time.Now()
		flush := func() error {
			if count == 0 {
				return nil
			}
			t0 := time.Now()
			msg = wire.AppendBatch(msg[:0], wire.Batch{Lease: l.ID, Records: uint64(count), Block: block})
			m, err := roundTrip(msg)
			tr.add("wire.batch_rtt", lane, ls, -1, t0, time.Now())
			if err != nil {
				return err
			}
			if m.Type != wire.MsgBatchAck {
				return fmt.Errorf("unexpected message type %d to batch", m.Type)
			}
			block, count, lastFlush = block[:0], 0, time.Now()
			if m.BatchAck.Flags&wire.AckSlowdown != 0 {
				time.Sleep(flushInterval)
			}
			return nil
		}
		for _, idx := range l.Indices {
			if idx < 0 || idx >= len(br.Plans) {
				return fmt.Errorf("lease index %d outside plan range", idx)
			}
			t0 := time.Now()
			o, err := w.RunOne(br.Plans[idx])
			tr.add(runOneName(&o), lane, ls, int8(o.Plan.Site), t0, time.Now())
			if err != nil {
				return err
			}
			tally.Add(o)
			claimed++
			sink.put(l.Bench, len(br.Plans), idx, o)
			block, scratch = wire.AppendRecordFrame(block, scratch, l.Bench, idx, &o)
			count++
			if count >= batchRecords || len(block) >= batchBytes || time.Since(lastFlush) >= flushInterval {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
		tally.Normalize()
		msg = wire.AppendShardDone(msg[:0], wire.ShardDone{Lease: l.ID, Claimed: uint64(claimed), Tally: wire.AppendTally(nil, tally)})
		m, err = roundTrip(msg)
		tr.finish(ls)
		if err != nil {
			return err
		}
		if m.Type != wire.MsgBatchAck {
			return fmt.Errorf("unexpected message type %d to shard done", m.Type)
		}
	}
}
