package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xentry/internal/inject"
	"xentry/internal/store"
	"xentry/internal/wire"
)

// This file is the coordinator side of the multi-process campaign data
// plane. A Fleet owns one TCP listener shared by every campaign; each
// fleet-mode Engine.Run registers a fleetRun with it, and remote
// xentry-worker processes connect, lease runs of activation-sorted plan
// indices carved off the campaign's queue, and stream outcome batches
// back as concatenated WAL-ready record frames.
//
// The hot path is deliberately narrow: the per-connection goroutine
// verifies and decodes each record (interning strings, so steady state is
// allocation-light), then hands the batch to the campaign's single ingest
// goroutine over a bounded channel. The ingest goroutine group-commits via
// store.AppendBatch — appending the already-framed bytes verbatim — and
// does every piece of lease accounting, so shard settlement is naturally
// ordered after the batches that preceded it on the same connection.
// Nothing on this path touches the HTTP/JSON control plane.
//
// Backpressure is layered: the protocol itself is stop-and-wait per
// worker (a worker sends nothing until its previous frame is acked), the
// ingest channel is bounded (a full channel blocks the ack), and acks
// carry wire.AckSlowdown once the channel passes its high watermark,
// asking the worker to pause before its next batch.

// fleetIngestDepth bounds each campaign's ingest queue (in batches, not
// records). Past half this depth, acks ask workers to slow down.
const fleetIngestDepth = 64

// fleetMinLease is the smallest lease the derived size carves while a
// benchmark has more plans left: each lease costs three stop-and-wait
// round trips, a WAL write and a tally cross-check, so it must carry
// enough injection work to pay for them.
const fleetMinLease = 64

// fleetTombstones bounds how many completed campaign ids a Fleet
// remembers, so that a worker dialing after its campaign finished is told
// Done instead of being refused like a worker that dialed too early.
const fleetTombstones = 1024

// FleetStats is a snapshot of the fleet's lifetime counters.
type FleetStats struct {
	// Workers is the number of currently connected worker sessions.
	Workers int64
	// Batches/Records/Damaged count accepted batch frames, decoded
	// records, and records rejected inside otherwise-accepted batches.
	Batches int64
	Records int64
	Damaged int64
	// Slowdowns counts acks that carried the slowdown flag.
	Slowdowns int64
	// Leases and Requeues count leases granted and leases requeued
	// (expiry, disconnect, failure, or cross-check mismatch).
	Leases   int64
	Requeues int64
}

// Fleet is the binary data plane: one TCP listener accepting persistent
// worker connections for any number of registered campaigns.
type Fleet struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	runs  map[string]*fleetRun
	conns map[net.Conn]struct{}
	// finished lists completed campaign ids, oldest first, at most
	// fleetTombstones of them.
	finished []string
	closed   bool
	workSeq  int

	workers   atomic.Int64
	batches   atomic.Int64
	records   atomic.Int64
	damaged   atomic.Int64
	slowdowns atomic.Int64
	leases    atomic.Int64
	requeues  atomic.Int64
}

// NewFleet listens on addr (e.g. "127.0.0.1:0") and starts accepting
// worker connections. Connections for campaigns that are not (yet)
// registered are refused, and workers retry; a Hello for a recently
// completed campaign is answered Done.
func NewFleet(addr string) (*Fleet, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := &Fleet{
		ln:    ln,
		runs:  map[string]*fleetRun{},
		conns: map[net.Conn]struct{}{},
	}
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

// Addr returns the listener's address, for workers to dial.
func (f *Fleet) Addr() string { return f.ln.Addr().String() }

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() FleetStats {
	return FleetStats{
		Workers:   f.workers.Load(),
		Batches:   f.batches.Load(),
		Records:   f.records.Load(),
		Damaged:   f.damaged.Load(),
		Slowdowns: f.slowdowns.Load(),
		Leases:    f.leases.Load(),
		Requeues:  f.requeues.Load(),
	}
}

// Close stops the listener and severs every worker connection. Registered
// runs are not failed — their campaigns resume from the store.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	f.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
}

func (f *Fleet) register(run *fleetRun) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("fleet: closed")
	}
	if _, dup := f.runs[run.id]; dup {
		return fmt.Errorf("fleet: campaign %s already registered", run.id)
	}
	f.runs[run.id] = run
	// A resubmitted campaign is running again, not finished.
	f.finished = slices.DeleteFunc(f.finished, func(id string) bool { return id == run.id })
	return nil
}

// unregister removes a run. A completed run leaves its tombstone in the
// same critical section, so a Hello never finds the id neither running
// nor finished.
func (f *Fleet) unregister(id string, completed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.runs, id)
	if completed {
		if len(f.finished) == fleetTombstones {
			f.finished = f.finished[1:]
		}
		f.finished = append(f.finished, id)
	}
}

// lookup returns the registered run for a campaign id, or reports whether
// the id names a completed campaign.
func (f *Fleet) lookup(id string) (run *fleetRun, finished bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if run := f.runs[id]; run != nil {
		return run, false
	}
	return nil, slices.Contains(f.finished, id)
}

// start registers a run and launches its ingest and lease-reaper
// goroutines.
func (f *Fleet) start(run *fleetRun) error {
	if err := f.register(run); err != nil {
		return err
	}
	go run.ingestLoop()
	go run.reap()
	return nil
}

// release unregisters a run, leaving a tombstone if it finished, and
// tears it down. Lingering sessions of a cancelled or failed run flip to
// refusal, so their workers redial (and find the campaign when it
// resumes) instead of polling a dead run forever; a finished run keeps
// answering Done. release returns once the ingest goroutine has exited,
// so the caller may close (and on resume, reopen) the store.
func (f *Fleet) release(run *fleetRun) {
	run.mu.Lock()
	completed := run.finished
	run.stopped = true
	run.mu.Unlock()
	f.unregister(run.id, completed)
	close(run.done)
	<-run.ingestDone
}

func (f *Fleet) accept() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = struct{}{}
		f.workSeq++
		wid := f.workSeq
		f.mu.Unlock()
		f.wg.Add(1)
		go f.serveConn(conn, wid)
	}
}

// refuse sends a best-effort protocol error and lets the deferred close
// drop the connection.
func refuse(conn net.Conn, format string, args ...any) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	conn.Write(wire.AppendError(nil, wire.ErrorMsg{Err: fmt.Sprintf(format, args...)}))
}

// serveConn drives one worker session: Hello/Welcome, then a strict
// request/response loop. Any protocol violation or I/O error ends the
// session; an active lease held by the session is requeued.
func (f *Fleet) serveConn(conn net.Conn, wid int) {
	defer f.wg.Done()
	defer func() {
		conn.Close()
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r := wire.NewReader(conn)

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	payload, err := r.Next()
	if err != nil {
		return
	}
	msg, err := wire.DecodeMsg(payload)
	if err != nil || msg.Type != wire.MsgHello {
		refuse(conn, "fleet: expected hello")
		return
	}
	if msg.Hello.Version != wire.ProtoVersion {
		refuse(conn, "fleet: protocol version %d unsupported (want %d)", msg.Hello.Version, wire.ProtoVersion)
		return
	}
	run, finished := f.lookup(msg.Hello.Campaign)
	if finished {
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		conn.Write(wire.AppendDone(nil))
		return
	}
	if run == nil {
		refuse(conn, "fleet: unknown campaign %q", msg.Hello.Campaign)
		return
	}
	// The session counts toward the derived lease size before its worker
	// sees the Welcome, so no lease is sized without it once it has.
	run.join(1)
	defer run.join(-1)
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(wire.AppendWelcome(nil, wire.Welcome{Version: wire.ProtoVersion, Spec: run.spec})); err != nil {
		return
	}

	f.workers.Add(1)
	defer f.workers.Add(-1)
	sess := &fleetSession{fleet: f, run: run, wid: wid, dec: wire.NewDecoder()}
	// A dying connection requeues whatever lease it held — through the
	// ingest channel, so the requeue is ordered after the session's
	// already-queued batches.
	defer sess.connLost()

	var out []byte
	for {
		// The read deadline reaps connections whose worker silently
		// vanished; a healthy worker streams batches or polls for leases
		// far more often than this.
		conn.SetReadDeadline(time.Now().Add(run.leaseTimeout + 30*time.Second))
		payload, err := r.Next()
		if err != nil {
			return
		}
		msg, err := wire.DecodeMsg(payload)
		if err != nil {
			refuse(conn, "fleet: %v", err)
			return
		}
		out = out[:0]
		switch msg.Type {
		case wire.MsgLeaseReq:
			out, err = sess.leaseReq(out)
		case wire.MsgBatch:
			out, err = sess.batch(out, msg.Batch)
		case wire.MsgShardDone:
			out, err = sess.shardDone(out, msg.ShardDone)
		case wire.MsgShardFail:
			out, err = sess.shardFail(out, msg.ShardFail)
		default:
			refuse(conn, "fleet: unexpected message type %d", msg.Type)
			return
		}
		if err != nil {
			refuse(conn, "fleet: %v", err)
			return
		}
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// fleetSession is one connected worker's per-connection state.
type fleetSession struct {
	fleet *Fleet
	run   *fleetRun
	wid   int
	dec   *wire.Decoder
}

func (s *fleetSession) leaseReq(out []byte) ([]byte, error) {
	if l := s.run.grantLease(s.wid); l != nil {
		s.fleet.leases.Add(1)
		return wire.AppendLease(out, *l), nil
	}
	switch s.run.phase() {
	case fleetRunDone:
		return wire.AppendDone(out), nil
	case fleetRunStopped:
		return nil, fmt.Errorf("campaign %s is not running", s.run.id)
	default:
		return wire.AppendNoWork(out, wire.NoWork{RetryMillis: s.run.retryMillis}), nil
	}
}

// batch verifies and decodes one batch's record frames, queues the result
// for ingest, and acks with the backpressure flag. Individual records that
// fail their CRC or decode are counted as damage (the lease cross-check
// will requeue the remainder); framing corruption is a protocol error that
// ends the session.
func (s *fleetSession) batch(out []byte, b *wire.Batch) ([]byte, error) {
	// One copy per batch: entries and their Frame slices must outlive the
	// connection reader's buffer, which the next frame reuses.
	block := append([]byte(nil), b.Block...)
	// Records is sender-controlled: cap the capacity hint at what the
	// block could physically hold (one header per record, minimum) so a
	// hostile count can't drive a giant or panicking allocation.
	hint := uint64(len(block) / wire.FrameHeader)
	if b.Records < hint {
		hint = b.Records
	}
	entries := make([]store.BatchEntry, 0, hint)
	damaged := 0
	rest := block
	for len(rest) > 0 {
		payload, next, err := wire.SplitFrame(rest)
		if err == wire.ErrChecksum {
			damaged++
			rest = next
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("batch framing: %w", err)
		}
		frame := rest[:len(rest)-len(next)]
		bench, index, o, derr := s.dec.DecodeRecord(payload)
		if derr != nil || !s.run.validRecord(bench, index) {
			damaged++
			rest = next
			continue
		}
		entries = append(entries, store.BatchEntry{Bench: bench, Index: index, Outcome: o, Frame: frame})
		rest = next
	}
	if err := s.run.submit(ingestItem{kind: itemBatch, lease: b.Lease, wid: s.wid, entries: entries, damaged: damaged}); err != nil {
		return nil, err
	}
	s.run.renewLease(b.Lease, s.wid)
	s.fleet.batches.Add(1)
	s.fleet.records.Add(int64(len(entries)))
	s.fleet.damaged.Add(int64(damaged))
	var flags uint64
	if len(s.run.ingest) >= fleetIngestDepth/2 {
		flags |= wire.AckSlowdown
		s.fleet.slowdowns.Add(1)
	}
	return wire.AppendBatchAck(out, wire.BatchAck{Flags: flags}), nil
}

func (s *fleetSession) shardDone(out []byte, sd *wire.ShardDone) ([]byte, error) {
	tally := append([]byte(nil), sd.Tally...)
	if err := s.run.submit(ingestItem{kind: itemDone, lease: sd.Lease, wid: s.wid, claimed: sd.Claimed, tally: tally}); err != nil {
		return nil, err
	}
	return wire.AppendBatchAck(out, wire.BatchAck{}), nil
}

func (s *fleetSession) shardFail(out []byte, sf *wire.ShardFail) ([]byte, error) {
	if err := s.run.submit(ingestItem{kind: itemFail, lease: sf.Lease, wid: s.wid, errMsg: sf.Err}); err != nil {
		return nil, err
	}
	return wire.AppendBatchAck(out, wire.BatchAck{}), nil
}

func (s *fleetSession) connLost() {
	// Best-effort: if the run is torn down the item is pointless anyway.
	select {
	case s.run.ingest <- ingestItem{kind: itemConnLost, wid: s.wid}:
	case <-s.run.done:
	}
}

// ingestItem is one unit of work for a campaign's ingest goroutine.
// Routing lease lifecycle events through the same channel as the batches
// keeps same-connection ordering: a ShardDone is processed only after
// every batch the worker sent before it.
type ingestItem struct {
	kind    byte
	lease   uint64
	wid     int
	entries []store.BatchEntry
	damaged int
	claimed uint64
	tally   []byte
	errMsg  string
}

const (
	itemBatch = iota
	itemDone
	itemFail
	itemExpire
	itemConnLost
)

// fleetRun phases, as seen by lease requests.
type fleetRunPhase int

const (
	fleetRunActive fleetRunPhase = iota
	// fleetRunDone: the campaign completed; workers should disconnect.
	fleetRunDone
	// fleetRunStopped: the run was cancelled or failed. Sessions are
	// refused so workers fall back to redialing — which is what lets a
	// persistent worker find the campaign again when it resumes.
	fleetRunStopped
)

// fleetShard is a run of one benchmark's plan indices in activation
// order. On the queue it is work not yet leased: a benchmark's whole todo
// list, or a requeued lease's missing remainder. grantLease carves each
// lease off the head of the queue as a shard of its own, numbered in
// carving order within its benchmark; a requeued lease keeps its number
// and attempt count. shard is -1 on a queued run no lease was numbered
// from yet.
type fleetShard struct {
	bench   string
	benchAt int
	shard   int
	attempt int
	indices []int
}

// fleetLease is one outstanding lease. deadline and wid are guarded by the
// run mutex; the accounting fields (accepted, damaged, tally) are touched
// only by the ingest goroutine.
type fleetLease struct {
	id       uint64
	wid      int
	shard    *fleetShard
	deadline time.Time

	accepted int
	damaged  int
	tally    *inject.Tally
}

// fleetRun is one campaign's live fleet execution: the queue of plan
// runs leases are carved from, the lease table, and the ingest pipeline.
type fleetRun struct {
	id           string
	spec         []byte
	eng          *Engine
	store        *store.Store
	total        int
	benches      map[string]bool
	injections   int
	maxAttempts  int
	leaseTimeout time.Duration
	retryMillis  uint64

	ingest     chan ingestItem
	done       chan struct{}
	ingestDone chan struct{} // closed when the ingest goroutine exits
	dec        *wire.Decoder // ingest-goroutine only

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*fleetShard
	// queued counts the plans on the queue, and sessions the worker
	// sessions serving the run: the derived lease size's Q and W.
	queued   int
	sessions int
	// carved counts the shards numbered so far in each benchmark.
	carved   []int
	leases   map[uint64]*fleetLease
	leaseSeq uint64
	// outstanding counts the shards not yet settled, queued and leased.
	outstanding int
	finished    bool
	stopped     bool
	err         error
}

func newFleetRun(e *Engine, cfg inject.CampaignConfig, leaseTimeout time.Duration, maxAttempts int) *fleetRun {
	run := &fleetRun{
		id:           e.Store.Meta().CampaignID,
		spec:         e.Spec,
		eng:          e,
		store:        e.Store,
		total:        len(cfg.Benchmarks) * cfg.InjectionsPerBenchmark,
		benches:      map[string]bool{},
		injections:   cfg.InjectionsPerBenchmark,
		maxAttempts:  maxAttempts,
		leaseTimeout: leaseTimeout,
		retryMillis:  100,
		carved:       make([]int, len(cfg.Benchmarks)),
		ingest:       make(chan ingestItem, fleetIngestDepth),
		done:         make(chan struct{}),
		ingestDone:   make(chan struct{}),
		dec:          wire.NewDecoder(),
		leases:       map[uint64]*fleetLease{},
	}
	for _, b := range cfg.Benchmarks {
		run.benches[b] = true
	}
	run.cond = sync.NewCond(&run.mu)
	return run
}

// validRecord bounds what a batch may fold: a benchmark of this campaign
// and an index inside the plan range. Anything else is damage, not data —
// and folding a wild index would grow the store's dedup bitmap to it.
func (run *fleetRun) validRecord(bench string, index int) bool {
	return run.benches[bench] && index >= 0 && index < run.injections
}

func (run *fleetRun) phase() fleetRunPhase {
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.finished {
		return fleetRunDone
	}
	if run.stopped || run.err != nil {
		return fleetRunStopped
	}
	return fleetRunActive
}

// submit queues one item for the ingest goroutine, blocking while the
// queue is full — the connection-level backpressure — and failing once the
// run is torn down.
func (run *fleetRun) submit(item ingestItem) error {
	select {
	case run.ingest <- item:
		return nil
	case <-run.done:
		return fmt.Errorf("campaign %s is not running", run.id)
	}
}

// renewLease pushes a lease's expiry out after an accepted batch: batches
// are the worker's heartbeat, and the slowdown flag rides their acks.
func (run *fleetRun) renewLease(id uint64, wid int) {
	run.mu.Lock()
	if l := run.leases[id]; l != nil && l.wid == wid {
		l.deadline = time.Now().Add(run.leaseTimeout)
	}
	run.mu.Unlock()
}

// join adds delta to the worker sessions serving the run.
func (run *fleetRun) join(delta int) {
	run.mu.Lock()
	run.sessions += delta
	run.mu.Unlock()
}

// grantLease carves the next lease off the queue and grants it to the
// worker. Indices that landed in the store meanwhile (stale-lease
// duplicates) are dropped from it, and a lease left empty settles on the
// spot.
func (run *fleetRun) grantLease(wid int) *wire.Lease {
	run.mu.Lock()
	defer run.mu.Unlock()
	for !run.finished && !run.stopped && run.err == nil && len(run.queue) > 0 {
		sh := run.carveLocked()
		remaining := sh.indices[:0]
		for _, i := range sh.indices {
			if !run.store.Has(sh.bench, i) {
				remaining = append(remaining, i)
			}
		}
		sh.indices = remaining
		if len(remaining) == 0 {
			run.settleLocked(sh, wid)
			continue
		}
		run.leaseSeq++
		l := &fleetLease{
			id:       run.leaseSeq,
			wid:      wid,
			shard:    sh,
			deadline: time.Now().Add(run.leaseTimeout),
			tally:    inject.NewTally(),
		}
		run.leases[l.id] = l
		done, total := run.store.TotalCount(), run.total
		run.eng.emit(Event{Type: EventShardStart, Campaign: run.id, Bench: sh.bench,
			Shard: sh.shard, Worker: wid, Attempt: sh.attempt, Done: done, Total: total})
		// Copy the indices: the wire message is encoded after run.mu is
		// released, and if the lease expires first, requeue() filters
		// sh.indices in place on the ingest goroutine.
		return &wire.Lease{ID: l.id, Bench: sh.bench, BenchAt: sh.benchAt, Shard: sh.shard,
			Indices: append([]int(nil), sh.indices...)}
	}
	return nil
}

// carveLocked cuts the next lease's shard, leaseSizeLocked plans long,
// off the head of the queue; a head no longer than that leaves the queue
// whole. The first shard cut from a requeued run keeps its number, and
// every other shard takes the benchmark's next. Callers hold run.mu.
func (run *fleetRun) carveLocked() *fleetShard {
	head := run.queue[0]
	n := min(run.leaseSizeLocked(), len(head.indices))
	run.queued -= n
	sh := head
	if n < len(head.indices) {
		sh = &fleetShard{bench: head.bench, benchAt: head.benchAt, shard: head.shard,
			attempt: head.attempt, indices: head.indices[:n:n]}
		head.indices, head.shard = head.indices[n:], -1
		run.outstanding++
	} else {
		run.queue[0] = nil
		run.queue = run.queue[1:]
	}
	if sh.shard < 0 {
		sh.shard = run.carved[sh.benchAt]
		run.carved[sh.benchAt]++
	}
	return sh
}

// leaseSizeLocked is the size of the next lease: Engine.ShardSize when
// set, else guided self-scheduling's share of the work left, ⌈Q/2W⌉ for
// Q queued plans and W serving sessions, at least fleetMinLease. Early
// leases are large, so a campaign pays few leases; late ones shrink, so
// the workers finish together. Callers hold run.mu.
func (run *fleetRun) leaseSizeLocked() int {
	if run.eng.ShardSize > 0 {
		return run.eng.ShardSize
	}
	w := 2 * max(run.sessions, 1)
	return max((run.queued+w-1)/w, fleetMinLease)
}

// settleLocked marks one shard complete. Callers hold run.mu.
func (run *fleetRun) settleLocked(sh *fleetShard, wid int) {
	done, total := run.store.TotalCount(), run.total
	run.eng.emit(Event{Type: EventShardDone, Campaign: run.id, Bench: sh.bench,
		Shard: sh.shard, Worker: wid, Attempt: sh.attempt, Done: done, Total: total})
	run.outstanding--
	run.cond.Broadcast()
}

func (run *fleetRun) settle(sh *fleetShard, wid int) {
	run.mu.Lock()
	run.settleLocked(sh, wid)
	run.mu.Unlock()
}

func (run *fleetRun) fail(err error) {
	run.mu.Lock()
	if run.err == nil {
		run.err = err
	}
	run.cond.Broadcast()
	run.mu.Unlock()
}

// requeue puts a shard's still-missing indices back on the queue, at its
// tail, to be carved again like any queued run.
// bumpAttempt distinguishes real failures (worker-reported errors,
// cross-check mismatches — these consume an attempt) from reassignments
// (disconnects, expiries — the shard did nothing wrong). A shard whose
// indices all landed anyway settles instead.
func (run *fleetRun) requeue(sh *fleetShard, wid int, cause error, bumpAttempt bool) {
	remaining := sh.indices[:0]
	for _, i := range sh.indices {
		if !run.store.Has(sh.bench, i) {
			remaining = append(remaining, i)
		}
	}
	sh.indices = remaining
	if len(remaining) == 0 {
		run.settle(sh, wid)
		return
	}
	if bumpAttempt {
		sh.attempt++
		if sh.attempt > run.maxAttempts {
			run.fail(fmt.Errorf("server: %s shard %d failed after %d attempts: %w",
				sh.bench, sh.shard, run.maxAttempts, cause))
			return
		}
	}
	run.eng.Fleet.requeues.Add(1)
	done, total := run.store.TotalCount(), run.total
	run.eng.emit(Event{Type: EventShardRequeued, Campaign: run.id, Bench: sh.bench,
		Shard: sh.shard, Worker: wid, Attempt: sh.attempt, Done: done, Total: total, Err: cause.Error()})
	run.mu.Lock()
	run.queue = append(run.queue, sh)
	run.queued += len(remaining)
	run.mu.Unlock()
}

// enqueueBench queues one benchmark's todo list, in activation order, as
// one run for grantLease to carve, and announces the benchmark. It emits
// under run.mu, as grantLease does, so no shard of the benchmark is
// announced before the benchmark itself.
func (run *fleetRun) enqueueBench(benchAt int, bench string, todo []int) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if len(todo) > 0 {
		run.queue = append(run.queue, &fleetShard{bench: bench, benchAt: benchAt, shard: -1, attempt: 1, indices: todo})
		run.queued += len(todo)
		run.outstanding++
	}
	run.eng.emit(Event{Type: EventBenchmarkStart, Campaign: run.id, Bench: bench,
		Done: run.store.TotalCount(), Total: run.total})
}

// wait blocks until every queued plan was leased and settled, the run
// failed, or the context was cancelled.
func (run *fleetRun) wait(ctx context.Context) error {
	run.mu.Lock()
	defer run.mu.Unlock()
	for {
		if run.err != nil {
			return run.err
		}
		if run.outstanding == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		run.cond.Wait()
	}
}

// finish flips lease requests to Done so connected workers drain and
// exit, and marks the run for a completion tombstone on release.
func (run *fleetRun) finish() {
	run.mu.Lock()
	run.finished = true
	run.mu.Unlock()
}

// ingestLoop is the campaign's single ingest goroutine: it folds batches
// into the store (group-committed, frames appended verbatim), does all
// lease accounting, and settles or requeues shards. One consumer means
// per-connection FIFO order is preserved end to end.
func (run *fleetRun) ingestLoop() {
	defer close(run.ingestDone)
	for {
		select {
		case item := <-run.ingest:
			run.process(item)
		case <-run.done:
			return
		}
	}
}

// reap turns expired leases into ingest items. The expiry is re-checked
// under the lock at processing time, so a batch that renewed the lease in
// the meantime wins.
func (run *fleetRun) reap() {
	period := run.leaseTimeout / 4
	if period < 20*time.Millisecond {
		period = 20 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-run.done:
			return
		case now := <-t.C:
			run.mu.Lock()
			var expired []uint64
			for id, l := range run.leases {
				if now.After(l.deadline) {
					expired = append(expired, id)
				}
			}
			run.mu.Unlock()
			for _, id := range expired {
				select {
				case run.ingest <- ingestItem{kind: itemExpire, lease: id}:
				case <-run.done:
					return
				}
			}
		}
	}
}

func (run *fleetRun) process(item ingestItem) {
	switch item.kind {
	case itemBatch:
		run.processBatch(item)
	case itemDone:
		run.processDone(item)
	case itemFail:
		if l := run.takeLease(item.lease, item.wid); l != nil {
			run.requeue(l.shard, item.wid, errors.New(item.errMsg), true)
		}
	case itemExpire:
		run.mu.Lock()
		l := run.leases[item.lease]
		if l == nil || time.Now().Before(l.deadline) {
			run.mu.Unlock()
			return
		}
		delete(run.leases, item.lease)
		run.mu.Unlock()
		run.requeue(l.shard, l.wid, errors.New("lease expired"), false)
	case itemConnLost:
		run.mu.Lock()
		var lost []*fleetLease
		for id, l := range run.leases {
			if l.wid == item.wid {
				delete(run.leases, id)
				lost = append(lost, l)
			}
		}
		run.mu.Unlock()
		for _, l := range lost {
			done, total := run.store.TotalCount(), run.total
			run.eng.emit(Event{Type: EventWorkerDead, Campaign: run.id, Bench: l.shard.bench,
				Shard: l.shard.shard, Worker: item.wid, Done: done, Total: total,
				Err: "worker disconnected"})
			run.requeue(l.shard, item.wid, errors.New("worker disconnected"), false)
		}
	}
}

// takeLease removes and returns a lease if it is still owned by wid.
func (run *fleetRun) takeLease(id uint64, wid int) *fleetLease {
	run.mu.Lock()
	defer run.mu.Unlock()
	l := run.leases[id]
	if l == nil || l.wid != wid {
		return nil
	}
	delete(run.leases, id)
	return l
}

func (run *fleetRun) processBatch(item ingestItem) {
	if len(item.entries) > 0 {
		if _, err := run.store.AppendBatch(item.entries); err != nil {
			run.fail(fmt.Errorf("server: fleet ingest: %w", err))
			return
		}
	}
	if run.eng.OnEvent != nil {
		run.mu.Lock()
		shard := -1
		if l := run.leases[item.lease]; l != nil {
			shard = l.shard.shard
		}
		run.mu.Unlock()
		for i := range item.entries {
			e := &item.entries[i]
			if !e.Fresh {
				continue
			}
			ev := outcomeEvent(run.id, e.Bench, &e.Outcome, run.store.TotalCount(), run.total)
			ev.Shard, ev.Worker = shard, item.wid
			run.eng.emit(ev)
		}
	}
	// Lease accounting: the coordinator's own fold of everything that
	// arrived for the lease, duplicates included — the worker's ShardDone
	// tally covers exactly what it streamed, fresh or not.
	run.mu.Lock()
	l := run.leases[item.lease]
	run.mu.Unlock()
	if l == nil || l.wid != item.wid {
		return // stale lease: records folded (dedup absorbed them), no accounting
	}
	l.accepted += len(item.entries)
	l.damaged += item.damaged
	for i := range item.entries {
		l.tally.Add(item.entries[i].Outcome)
	}
}

// processDone cross-checks a completed lease: every claimed record must
// have arrived undamaged, and the worker's own tally of the shard must be
// bit-identical to the coordinator's fold of what it received. Any
// discrepancy requeues the remainder (consuming an attempt) — corruption
// or divergence is never silently folded into the campaign.
func (run *fleetRun) processDone(item ingestItem) {
	l := run.takeLease(item.lease, item.wid)
	if l == nil {
		return // expired or reassigned; its replacement settles the shard
	}
	if l.damaged > 0 || uint64(l.accepted) != item.claimed {
		run.requeue(l.shard, item.wid, fmt.Errorf("lease %d: %d of %d records arrived, %d damaged",
			l.id, l.accepted, item.claimed, l.damaged), true)
		return
	}
	workerTally, err := run.dec.DecodeTallyFull(item.tally)
	if err != nil {
		run.requeue(l.shard, item.wid, fmt.Errorf("lease %d: worker tally: %w", l.id, err), true)
		return
	}
	l.tally.Normalize()
	workerTally.Normalize()
	if !reflect.DeepEqual(l.tally, workerTally) {
		run.requeue(l.shard, item.wid, fmt.Errorf("lease %d: worker tally diverges from coordinator fold", l.id), true)
		return
	}
	run.settle(l.shard, item.wid)
}

// runFleet executes the campaign over the remote worker fleet: leases are
// granted to connected xentry-worker processes and their batched results
// ingested off the HTTP/JSON path. The coordinator never executes an
// injection itself — it derives each benchmark's plan list (PreparePlans,
// no checkpoint pool) only to compute its activation order. Every
// unfinished benchmark's todo list joins one queue, in benchmark order,
// before the single wait: workers lease across benchmark boundaries, and
// NoWork means every remaining plan is leased.
func (e *Engine) runFleet(ctx context.Context, cfg inject.CampaignConfig) (*inject.CampaignResult, error) {
	if len(e.Spec) == 0 {
		return nil, fmt.Errorf("server: fleet mode needs Engine.Spec (the campaign spec JSON workers derive their config from)")
	}
	maxAttempts := e.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	leaseTimeout := e.ShardTimeout
	if leaseTimeout <= 0 {
		leaseTimeout = 2 * time.Minute
	}

	run := newFleetRun(e, cfg, leaseTimeout, maxAttempts)
	if err := e.Fleet.start(run); err != nil {
		return nil, err
	}
	defer e.Fleet.release(run)
	// Wake the coordinator's wait when the run context dies.
	go func() {
		select {
		case <-ctx.Done():
			// Hold run.mu so the Broadcast can't land between wait()'s
			// ctx.Err() check and its cond.Wait(), which would lose the
			// wakeup and leave runFleet parked on a dead context.
			run.mu.Lock()
			run.cond.Broadcast()
			run.mu.Unlock()
		case <-run.done:
		}
	}()

	for bi, bench := range cfg.Benchmarks {
		if e.Store.Count(bench) >= cfg.InjectionsPerBenchmark {
			continue // fully stored: skip even the golden run
		}
		plans, err := inject.PreparePlans(cfg, bi)
		if err != nil {
			return nil, err
		}
		order := inject.ActivationOrder(plans)
		todo := order[:0]
		for _, i := range order {
			if !e.Store.Has(bench, i) {
				todo = append(todo, i)
			}
		}
		run.enqueueBench(bi, bench, todo)
	}
	if err := run.wait(ctx); err != nil {
		return nil, err
	}
	res, err := e.Store.Result()
	if err != nil {
		return nil, err
	}
	run.finish()
	return res, nil
}
