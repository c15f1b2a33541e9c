package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"xentry/internal/inject"
	"xentry/internal/wire"
)

// This file is the worker side of the fleet data plane, shared by
// cmd/xentry-worker and the multi-process tests. A worker is a loop:
// dial the coordinator, Hello, derive the exact CampaignConfig from the
// Welcome spec and install the transition model the Welcome ships (the
// coordinator trained it once; workers never train), then lease shards
// and execute them, streaming outcomes back in size/time-flushed batches
// of WAL-ready record frames. Everything is deterministic given the spec
// and the model, which is what makes the coordinator's tally cross-check
// and the differential tests possible.

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the fleet listener's host:port. Required.
	Coordinator string
	// Campaign is the campaign ID to work on. Required.
	Campaign string
	// Name labels this worker in coordinator logs (optional).
	Name string
	// BatchRecords flushes a batch once it holds this many records
	// (default 256).
	BatchRecords int
	// BatchBytes flushes a batch once its block reaches this size
	// (default 256 KiB).
	BatchBytes int
	// FlushInterval flushes a non-empty batch at least this often, and is
	// also the pause taken when the coordinator signals slowdown
	// (default 50ms).
	FlushInterval time.Duration
	// RetryInterval paces redials after connection errors (default 500ms).
	RetryInterval time.Duration
	// MaxDials bounds reconnection attempts (0 = retry until the context
	// is cancelled or the campaign completes).
	MaxDials int
	// Logf, when set, receives connection-level progress and errors.
	Logf func(format string, args ...any)
}

func (o *WorkerOptions) withDefaults() {
	if o.BatchRecords <= 0 {
		o.BatchRecords = 256
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 256 << 10
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 500 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// RunWorker executes campaign shards for a remote coordinator until the
// campaign completes (returns nil), the context is cancelled, or MaxDials
// is exhausted. Connection loss is not fatal: prepared benchmark state
// survives redials, and the coordinator requeues whatever the dead
// connection was leasing.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Coordinator == "" || opts.Campaign == "" {
		return fmt.Errorf("worker: Coordinator and Campaign are required")
	}
	opts.withDefaults()
	st := &workerState{opts: &opts}
	dials := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := st.runSession(ctx)
		if err == nil {
			return nil // campaign complete
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		dials++
		if opts.MaxDials > 0 && dials >= opts.MaxDials {
			return err
		}
		opts.Logf("worker: session ended (%v), retrying in %v", err, opts.RetryInterval)
		select {
		case <-time.After(opts.RetryInterval):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// workerState is what survives across sessions: the derived campaign
// config and the prepared benchmark (checkpoint pool included), so a
// redial does not repeat the expensive setup.
type workerState struct {
	opts     *WorkerOptions
	specRaw  []byte
	modelRaw []byte
	cfg      inject.CampaignConfig

	benchAt int
	br      *inject.BenchmarkRun
	worker  *inject.Worker
}

// configure derives the campaign config from the Welcome: the spec through
// the Spec.CampaignConfig the coordinator's startCampaign uses (which
// validates it first, as handleCreate did), so every worker reproduces
// the exact plans of an in-process run, and the model the coordinator
// trained, decoded.
func (st *workerState) configure(w *wire.Welcome) error {
	if bytes.Equal(w.Spec, st.specRaw) && bytes.Equal(w.Model, st.modelRaw) {
		return nil
	}
	var sp CampaignSpec
	if err := json.Unmarshal(w.Spec, &sp); err != nil {
		return fmt.Errorf("worker: campaign spec: %w", err)
	}
	cfg, err := sp.CampaignConfig()
	if err != nil {
		return fmt.Errorf("worker: campaign spec: %w", err)
	}
	if cfg.Model, err = wire.DecodeModel(w.Model); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	st.specRaw = append([]byte(nil), w.Spec...)
	st.modelRaw = append([]byte(nil), w.Model...)
	st.cfg = cfg.Normalized()
	st.benchAt, st.br, st.worker = -1, nil, nil
	return nil
}

// benchRun returns the prepared run for one benchmark, caching the most
// recent one — the coordinator queues shards in benchmark order, so a
// single slot keeps memory bounded while still amortizing the golden run
// and checkpoint pool across every shard of the benchmark. Only a
// requeued shard, which rejoins at the tail, can cost a second prepare.
func (st *workerState) benchRun(at int, bench string) (*inject.BenchmarkRun, *inject.Worker, error) {
	if at < 0 || at >= len(st.cfg.Benchmarks) || st.cfg.Benchmarks[at] != bench {
		return nil, nil, fmt.Errorf("worker: lease names benchmark %q at %d, campaign has %v", bench, at, st.cfg.Benchmarks)
	}
	if st.br != nil && st.benchAt == at {
		return st.br, st.worker, nil
	}
	st.opts.Logf("worker: preparing benchmark %s", bench)
	br, err := inject.PrepareBenchmark(st.cfg, at)
	if err != nil {
		return nil, nil, err
	}
	st.benchAt, st.br, st.worker = at, br, br.Runner.NewWorker()
	return br, st.worker, nil
}

// runSession runs one connection's lifetime. It returns nil exactly when
// the coordinator said Done (campaign complete), in reply to the Hello or
// to a lease request; every other exit is an error worth a redial.
func (st *workerState) runSession(ctx context.Context) error {
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", st.opts.Coordinator)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Context cancellation severs the connection, unblocking any read.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r := wire.NewReader(conn)
	// roundTrip is the session's only I/O shape: one frame out, one frame
	// back. A coordinator ErrorMsg is fatal for the session.
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
			return wire.Msg{}, fmt.Errorf("worker: coordinator refused: %s", m.Error.Err)
		}
		return m, nil
	}

	m, err := roundTrip(wire.AppendHello(nil, wire.Hello{
		Version: wire.ProtoVersion, Campaign: st.opts.Campaign, Worker: st.opts.Name,
	}))
	if err != nil {
		return err
	}
	if m.Type == wire.MsgDone {
		// The campaign finished before this session: nothing left to do.
		st.opts.Logf("worker: campaign %s already complete", st.opts.Campaign)
		return nil
	}
	if m.Type != wire.MsgWelcome {
		return fmt.Errorf("worker: expected welcome, got message type %d", m.Type)
	}
	if m.Welcome.Version != wire.ProtoVersion {
		return fmt.Errorf("worker: coordinator speaks protocol %d, want %d", m.Welcome.Version, wire.ProtoVersion)
	}
	if err := st.configure(m.Welcome); err != nil {
		return err
	}

	var req []byte
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		req = wire.AppendLeaseReq(req[:0])
		m, err := roundTrip(req)
		if err != nil {
			return err
		}
		switch m.Type {
		case wire.MsgDone:
			st.opts.Logf("worker: campaign %s complete", st.opts.Campaign)
			return nil
		case wire.MsgNoWork:
			delay := time.Duration(m.NoWork.RetryMillis) * time.Millisecond
			if delay <= 0 {
				delay = 100 * time.Millisecond
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		case wire.MsgLease:
			if err := st.runLease(ctx, roundTrip, m.Lease); err != nil {
				return err
			}
		default:
			return fmt.Errorf("worker: unexpected message type %d to lease request", m.Type)
		}
	}
}

// runLease executes one shard: run every leased plan index in order,
// folding a local tally and streaming record frames in batches, then
// close the lease with the tally for the coordinator's cross-check.
func (st *workerState) runLease(ctx context.Context, roundTrip func([]byte) (wire.Msg, error), l *wire.Lease) error {
	abandon := func(cause error) error {
		st.opts.Logf("worker: abandoning lease %d: %v", l.ID, cause)
		m, err := roundTrip(wire.AppendShardFail(nil, wire.ShardFail{Lease: l.ID, Err: cause.Error()}))
		if err != nil {
			return err
		}
		if m.Type != wire.MsgBatchAck {
			return fmt.Errorf("worker: unexpected message type %d to shard fail", m.Type)
		}
		return nil
	}
	br, w, err := st.benchRun(l.BenchAt, l.Bench)
	if err != nil {
		return abandon(err)
	}

	tally := inject.NewTally()
	var block, scratch, msgBuf []byte
	count, claimed := 0, 0
	slowdown := false
	lastFlush := time.Now()
	flush := func() error {
		if count == 0 {
			return nil
		}
		msgBuf = wire.AppendBatch(msgBuf[:0], wire.Batch{Lease: l.ID, Records: uint64(count), Block: block})
		m, err := roundTrip(msgBuf)
		if err != nil {
			return err
		}
		if m.Type != wire.MsgBatchAck {
			return fmt.Errorf("worker: unexpected message type %d to batch", m.Type)
		}
		slowdown = m.BatchAck.Flags&wire.AckSlowdown != 0
		block, count = block[:0], 0
		lastFlush = time.Now()
		return nil
	}

	for _, idx := range l.Indices {
		if err := ctx.Err(); err != nil {
			return err
		}
		if idx < 0 || idx >= len(br.Plans) {
			return abandon(fmt.Errorf("lease index %d outside plan range [0,%d)", idx, len(br.Plans)))
		}
		o, err := w.RunOne(br.Plans[idx])
		if err != nil {
			// Deliver what already ran, then hand the remainder back.
			if ferr := flush(); ferr != nil {
				return ferr
			}
			return abandon(fmt.Errorf("plan %d: %w", idx, err))
		}
		tally.Add(o)
		claimed++
		block, scratch = wire.AppendRecordFrame(block, scratch, l.Bench, idx, &o)
		count++
		if count >= st.opts.BatchRecords || len(block) >= st.opts.BatchBytes || time.Since(lastFlush) >= st.opts.FlushInterval {
			if err := flush(); err != nil {
				return err
			}
			if slowdown {
				// The coordinator's ingest queue is backed up: pause one
				// flush interval before producing more.
				select {
				case <-time.After(st.opts.FlushInterval):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	tally.Normalize()
	msgBuf = wire.AppendShardDone(msgBuf[:0], wire.ShardDone{
		Lease: l.ID, Claimed: uint64(claimed), Tally: wire.AppendTally(nil, tally),
	})
	m, err := roundTrip(msgBuf)
	if err != nil {
		return err
	}
	if m.Type != wire.MsgBatchAck {
		return fmt.Errorf("worker: unexpected message type %d to shard done", m.Type)
	}
	return nil
}
