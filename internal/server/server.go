package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/store"
)

// CampaignSpec is the JSON body of POST /campaigns. Submitting the same
// spec (same ID included) against a data directory that already holds
// part of the campaign resumes it — stored plan indices are never
// re-executed.
type CampaignSpec = experiments.Spec

// CampaignStatus is the JSON body of GET /campaigns/{id}.
type CampaignStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running" | "done" | "failed"
	Error string `json:"error,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// PerBenchmark maps benchmark name to stored outcome count.
	PerBenchmark map[string]int `json:"per_benchmark"`
	// Dropped is the store's corrupt-record drop count (see store.Dropped).
	Dropped        int       `json:"dropped"`
	StartedAt      time.Time `json:"started_at"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	RatePerSecond  float64   `json:"rate_per_second"`
}

// Config tunes the campaign server.
type Config struct {
	// DataDir is the root under which each campaign gets its store
	// directory. Required.
	DataDir string
	// Workers sizes in-process campaigns (0 = GOMAXPROCS).
	Workers int
	// ShardSize, MaxAttempts and ShardTimeout apply to fleet campaigns
	// only; see the Engine fields of the same names. ShardSize 0 derives
	// each lease's size from the work left.
	ShardSize    int
	MaxAttempts  int
	ShardTimeout time.Duration
	// Fleet, when set, lets campaigns with Execution "fleet" run over the
	// remote worker data plane. The server does not own the fleet; the
	// caller (cmd/xentry-serve) creates and closes it.
	Fleet *Fleet
}

// Server is the HTTP coordinator: it owns the campaign registry, one
// durable store and one engine per campaign, and the event streams.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	seq       int

	// metrics, exposed at /metrics.
	outcomesRecorded atomic.Int64
	shardRetries     atomic.Int64
	workerDeaths     atomic.Int64
	campaignsDone    atomic.Int64
	campaignsFailed  atomic.Int64
	// prunedDead/prunedConverged count outcome events by run provenance,
	// exposed as xentry_pruned_total{reason="..."} so operators can see
	// the convergence-pruning hit rate of a live campaign.
	prunedDead      atomic.Int64
	prunedConverged atomic.Int64

	// pruned breaks the same counts down by (reason, fault-site class),
	// exposed as xentry_pruned_total{reason="...",site="..."} next to the
	// aggregate lines (kept for dashboard compatibility); guarded by
	// prunedMu like detections.
	prunedMu sync.Mutex
	pruned   map[[2]string]int64

	// detections counts detected outcomes per technique name (from
	// Event.Technique, so plugin techniques appear without server
	// changes); guarded by detectionsMu, exposed as
	// xentry_detections_total{technique="..."}.
	detectionsMu sync.Mutex
	detections   map[string]int64

	// recoveries counts recovery-engine attempts by (strategy, outcome
	// class), exposed as xentry_recoveries_total{strategy="...",
	// outcome="..."}; guarded by recoveriesMu like detections.
	recoveriesMu sync.Mutex
	recoveries   map[[2]string]int64

	// sites counts recorded outcomes per fault-site class name, exposed
	// as xentry_injections_total{site="..."}; guarded like detections.
	sitesMu sync.Mutex
	sites   map[string]int64
}

// campaign is one registered campaign's runtime state.
type campaign struct {
	id     string
	spec   CampaignSpec
	cfg    inject.CampaignConfig // derived from spec; the run installs the model
	total  int
	store  *store.Store
	engine *Engine
	events *broadcaster

	mu       sync.Mutex
	state    string
	errMsg   string
	report   *experiments.CampaignReport
	started  time.Time
	finished time.Time
}

// NewServer creates a campaign server rooted at cfg.DataDir.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: map[string]*campaign{},
	}, nil
}

// Close stops every running campaign (their stores keep the completed
// outcomes; resubmitting the same spec resumes them).
func (s *Server) Close() { s.cancel() }

// Handler returns the server's HTTP routes: the campaign API, Prometheus-
// style /metrics, and /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleCreate)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

var idPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Execution == "fleet" && s.cfg.Fleet == nil {
		httpError(w, http.StatusBadRequest, "execution \"fleet\" needs a server with a fleet listener")
		return
	}
	if spec.ID != "" && !idPattern.MatchString(spec.ID) {
		httpError(w, http.StatusBadRequest, "invalid campaign id")
		return
	}

	s.mu.Lock()
	if spec.ID == "" {
		for {
			s.seq++
			id := fmt.Sprintf("c%06d", s.seq)
			if _, taken := s.campaigns[id]; taken {
				continue
			}
			if _, err := os.Stat(filepath.Join(s.cfg.DataDir, id)); err == nil {
				continue // directory from a previous server life
			}
			spec.ID = id
			break
		}
	} else if existing, ok := s.campaigns[spec.ID]; ok {
		state, _ := existing.snapshotState()
		s.mu.Unlock()
		if state == "running" {
			httpError(w, http.StatusConflict, "campaign %s already running", spec.ID)
			return
		}
		httpError(w, http.StatusConflict, "campaign %s already registered (state %s)", spec.ID, state)
		return
	}
	s.mu.Unlock()

	c, err := s.startCampaign(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(c.status())
}

// startCampaign derives the campaign's config, opens (or resumes) the
// store, registers the campaign, and launches its run goroutine.
func (s *Server) startCampaign(spec CampaignSpec) (*campaign, error) {
	cfg, err := spec.CampaignConfig()
	if err != nil {
		return nil, err
	}
	cfg.Workers = s.cfg.Workers
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(s.cfg.DataDir, spec.ID), store.Meta{
		CampaignID:  spec.ID,
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
		Extra:       specJSON,
	}, store.Options{})
	if err != nil {
		return nil, err
	}
	c := &campaign{
		id:     spec.ID,
		spec:   spec,
		cfg:    cfg,
		total:  len(cfg.Benchmarks) * cfg.InjectionsPerBenchmark,
		store:  st,
		events: newBroadcaster(),
		state:  "running",
	}
	c.started = time.Now()
	c.engine = &Engine{
		Store:        st,
		ShardSize:    s.cfg.ShardSize,
		MaxAttempts:  s.cfg.MaxAttempts,
		ShardTimeout: s.cfg.ShardTimeout,
		OnEvent: func(ev Event) {
			switch ev.Type {
			case EventOutcome:
				s.outcomesRecorded.Add(1)
				if ev.Technique != "" {
					s.countDetection(ev.Technique)
				}
				if ev.Site != "" {
					s.countSite(ev.Site)
				}
				switch ev.Pruned {
				case "dead":
					s.prunedDead.Add(1)
					s.countPruned(ev.Pruned, ev.Site)
				case "converged":
					s.prunedConverged.Add(1)
					s.countPruned(ev.Pruned, ev.Site)
				}
				if ev.RecoveryStrategy != "" {
					s.countRecovery(ev.RecoveryStrategy, ev.RecoveryOutcome)
				}
			case EventShardRequeued:
				s.shardRetries.Add(1)
			case EventWorkerDead:
				s.workerDeaths.Add(1)
			}
			c.events.publish(ev)
		},
	}
	if spec.Execution == "fleet" {
		// Fleet mode: the engine leases shards to remote workers; the spec
		// JSON (also persisted in the store's meta) is what workers derive
		// their config from, through the same Spec.CampaignConfig.
		c.engine.Fleet = s.cfg.Fleet
		c.engine.Spec = specJSON
	}
	s.mu.Lock()
	s.campaigns[spec.ID] = c
	s.order = append(s.order, spec.ID)
	s.mu.Unlock()
	go s.runCampaign(c)
	return c, nil
}

// runCampaign trains (optionally), drives the engine to completion, and
// settles the campaign's terminal state: it closes the store (a failed
// final sync fails the campaign), sets the state and report, and only then
// closes the broadcaster, whose close ends every SSE stream with the
// terminal event built from that settled state — so a client that saw
// campaign_done can fetch the report.
func (s *Server) runCampaign(c *campaign) {
	// The campaign's one training site, for both executions: in process
	// the engine trains before its first injection; on the fleet it trains
	// while the run queues its plans, and every worker's Welcome ships the
	// tree.
	res, err := c.engine.run(s.ctx, c.cfg, func() (*ml.Tree, error) {
		if c.spec.TrainInjections == 0 {
			return nil, nil
		}
		trained, err := experiments.Train(c.spec.TrainScale())
		if err != nil {
			return nil, fmt.Errorf("server: training: %w", err)
		}
		return trained.Best(), nil
	})
	if cerr := c.store.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("server: closing store: %w", cerr)
	}
	c.mu.Lock()
	c.finished = time.Now()
	if err != nil {
		c.state, c.errMsg = "failed", err.Error()
		s.campaignsFailed.Add(1)
	} else {
		c.state = "done"
		c.report = experiments.NewCampaignReport(res, c.cfg.Benchmarks)
		s.campaignsDone.Add(1)
	}
	c.mu.Unlock()
	c.events.close()
}

func (c *campaign) snapshotState() (state, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, c.errMsg
}

// status assembles the live status from the store and the campaign state.
func (c *campaign) status() CampaignStatus {
	c.mu.Lock()
	state, errMsg := c.state, c.errMsg
	started, finished := c.started, c.finished
	c.mu.Unlock()
	st := CampaignStatus{
		ID:           c.id,
		State:        state,
		Error:        errMsg,
		Done:         c.store.TotalCount(),
		Total:        c.total,
		PerBenchmark: map[string]int{},
		Dropped:      c.store.Dropped(),
		StartedAt:    started,
	}
	for _, bench := range c.cfg.Benchmarks {
		st.PerBenchmark[bench] = c.store.Count(bench)
	}
	end := finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedSeconds = end.Sub(started).Seconds()
	if st.ElapsedSeconds > 0 {
		st.RatePerSecond = float64(st.Done) / st.ElapsedSeconds
	}
	return st
}

func (s *Server) campaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.campaigns[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, c.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.mu.Lock()
	state, report, errMsg := c.state, c.report, c.errMsg
	c.mu.Unlock()
	switch state {
	case "done":
		writeJSON(w, report)
	case "failed":
		httpError(w, http.StatusConflict, "campaign failed: %s", errMsg)
	default:
		httpError(w, http.StatusConflict, "campaign still running")
	}
}

// handleEvents streams campaign progress as server-sent events: one
// `data: <Event JSON>` line per event, starting with a synthetic status
// event, ending with campaign_done/campaign_failed built from the settled
// campaign state. Outcomes are coalesced (see broadcaster): each wake-up
// writes the queued lifecycle events in order, then the newest outcome,
// then flushes once; a closed broadcaster's last drain precedes the
// terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// send writes one event into the response's buffer; the caller
	// flushes once per batch.
	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "data: %s\n\n", data)
		return err == nil
	}

	sub := c.events.subscribe()
	defer c.events.unsubscribe(sub)
	// Synthetic opening event with current progress; for a finished
	// campaign (closed broadcaster) it doubles as the terminal event.
	st := c.status()
	first := Event{Type: "status", Campaign: c.id, Done: st.Done, Total: st.Total}
	switch st.State {
	case "done":
		first.Type = EventCampaignDone
	case "failed":
		first.Type = EventCampaignFailed
		first.Err = st.Error
	}
	if !send(first) {
		return
	}
	flusher.Flush()
	if first.Type == EventCampaignDone || first.Type == EventCampaignFailed {
		return
	}
	var batch []Event
	for {
		select {
		case <-sub.wake:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
		var closed bool
		batch, closed = c.events.drain(sub, batch[:0])
		for _, ev := range batch {
			if !send(ev) {
				return
			}
		}
		if closed {
			// Broadcaster closed: the campaign settled while we streamed,
			// and its state is final.
			state, errMsg := c.snapshotState()
			st := c.status()
			if state == "failed" {
				send(Event{Type: EventCampaignFailed, Campaign: c.id, Done: st.Done, Total: st.Total, Err: errMsg})
			} else {
				send(Event{Type: EventCampaignDone, Campaign: c.id, Done: st.Done, Total: st.Total})
			}
		}
		flusher.Flush()
		if closed {
			return
		}
	}
}

// countDetection bumps the per-technique detection counter. Technique
// names are registry strings, so detectors registered outside
// internal/core surface here with no server changes.
func (s *Server) countDetection(technique string) {
	s.detectionsMu.Lock()
	if s.detections == nil {
		s.detections = map[string]int64{}
	}
	s.detections[technique]++
	s.detectionsMu.Unlock()
}

func (s *Server) countSite(site string) {
	s.sitesMu.Lock()
	if s.sites == nil {
		s.sites = map[string]int64{}
	}
	s.sites[site]++
	s.sitesMu.Unlock()
}

func (s *Server) countPruned(reason, site string) {
	s.prunedMu.Lock()
	if s.pruned == nil {
		s.pruned = map[[2]string]int64{}
	}
	s.pruned[[2]string{reason, site}]++
	s.prunedMu.Unlock()
}

func (s *Server) countRecovery(strategy, outcome string) {
	s.recoveriesMu.Lock()
	if s.recoveries == nil {
		s.recoveries = map[[2]string]int64{}
	}
	s.recoveries[[2]string{strategy, outcome}]++
	s.recoveriesMu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	total := len(s.campaigns)
	running := 0
	dropped := 0
	var sseDropped int64
	for _, c := range s.campaigns {
		if state, _ := c.snapshotState(); state == "running" {
			running++
		}
		dropped += c.store.Dropped()
		sseDropped += c.events.droppedCount()
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "xentry_campaigns_total %d\n", total)
	fmt.Fprintf(w, "xentry_campaigns_running %d\n", running)
	fmt.Fprintf(w, "xentry_campaigns_done_total %d\n", s.campaignsDone.Load())
	fmt.Fprintf(w, "xentry_campaigns_failed_total %d\n", s.campaignsFailed.Load())
	fmt.Fprintf(w, "xentry_outcomes_recorded_total %d\n", s.outcomesRecorded.Load())
	fmt.Fprintf(w, "xentry_shard_retries_total %d\n", s.shardRetries.Load())
	fmt.Fprintf(w, "xentry_worker_deaths_total %d\n", s.workerDeaths.Load())
	fmt.Fprintf(w, "xentry_wal_records_dropped_total %d\n", dropped)
	fmt.Fprintf(w, "xentry_sse_events_dropped_total %d\n", sseDropped)
	fmt.Fprintf(w, "xentry_pruned_total{reason=\"dead\"} %d\n", s.prunedDead.Load())
	fmt.Fprintf(w, "xentry_pruned_total{reason=\"converged\"} %d\n", s.prunedConverged.Load())
	s.prunedMu.Lock()
	pruneKeys := make([][2]string, 0, len(s.pruned))
	for k := range s.pruned {
		pruneKeys = append(pruneKeys, k)
	}
	sort.Slice(pruneKeys, func(i, j int) bool {
		if pruneKeys[i][0] != pruneKeys[j][0] {
			return pruneKeys[i][0] < pruneKeys[j][0]
		}
		return pruneKeys[i][1] < pruneKeys[j][1]
	})
	for _, k := range pruneKeys {
		fmt.Fprintf(w, "xentry_pruned_total{reason=%q,site=%q} %d\n", k[0], k[1], s.pruned[k])
	}
	s.prunedMu.Unlock()
	if s.cfg.Fleet != nil {
		fs := s.cfg.Fleet.Stats()
		fmt.Fprintf(w, "xentry_fleet_workers %d\n", fs.Workers)
		fmt.Fprintf(w, "xentry_fleet_batches_total %d\n", fs.Batches)
		fmt.Fprintf(w, "xentry_fleet_records_total %d\n", fs.Records)
		fmt.Fprintf(w, "xentry_fleet_damaged_records_total %d\n", fs.Damaged)
		fmt.Fprintf(w, "xentry_fleet_slowdown_acks_total %d\n", fs.Slowdowns)
		fmt.Fprintf(w, "xentry_fleet_leases_total %d\n", fs.Leases)
		fmt.Fprintf(w, "xentry_fleet_requeues_total %d\n", fs.Requeues)
	}
	s.sitesMu.Lock()
	siteNames := make([]string, 0, len(s.sites))
	for name := range s.sites {
		siteNames = append(siteNames, name)
	}
	sort.Strings(siteNames)
	for _, name := range siteNames {
		fmt.Fprintf(w, "xentry_injections_total{site=%q} %d\n", name, s.sites[name])
	}
	s.sitesMu.Unlock()
	s.detectionsMu.Lock()
	techniques := make([]string, 0, len(s.detections))
	for name := range s.detections {
		techniques = append(techniques, name)
	}
	sort.Strings(techniques)
	for _, name := range techniques {
		fmt.Fprintf(w, "xentry_detections_total{technique=%q} %d\n", name, s.detections[name])
	}
	s.detectionsMu.Unlock()
	s.recoveriesMu.Lock()
	recKeys := make([][2]string, 0, len(s.recoveries))
	for k := range s.recoveries {
		recKeys = append(recKeys, k)
	}
	sort.Slice(recKeys, func(i, j int) bool {
		if recKeys[i][0] != recKeys[j][0] {
			return recKeys[i][0] < recKeys[j][0]
		}
		return recKeys[i][1] < recKeys[j][1]
	})
	for _, k := range recKeys {
		fmt.Fprintf(w, "xentry_recoveries_total{strategy=%q,outcome=%q} %d\n",
			k[0], k[1], s.recoveries[k])
	}
	s.recoveriesMu.Unlock()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// subscriberQueue bounds each subscriber's queue of lifecycle events.
// Outcomes never take a slot, so the queue holds only the few events per
// shard lease published while the handler writes, and fills only behind
// a client that stopped reading. Overflow drops lifecycle events
// (counted), never progress.
const subscriberQueue = 1024

// broadcaster fans engine events out to any number of SSE subscribers.
// Lifecycle events queue per subscriber in publish order; outcome events
// coalesce into one slot per subscriber that holds the newest. Slow
// subscribers drop lifecycle events rather than stalling workers; the
// terminal event is synthesized by the handler from campaign state, so a
// drop never wedges a client.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
	// dropped counts lifecycle events lost to full subscriber queues.
	dropped int64
}

// subscriber is one event stream's pending state, guarded by the
// broadcaster's mu. wake holds at most one pending wake-up, so a burst of
// publishes costs the handler one drain and one flush.
type subscriber struct {
	wake  chan struct{}
	queue []Event
	// outcome is the newest outcome accepted, pending until drained. An
	// outcome with a lower Done than it is stale and skipped, so the
	// outcomes a client sees never go back in progress.
	outcome Event
	pending bool
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: map[*subscriber]struct{}{}}
}

func (b *broadcaster) subscribe() *subscriber {
	sub := &subscriber{wake: make(chan struct{}, 1)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		sub.poke()
	} else {
		b.subs[sub] = struct{}{}
	}
	return sub
}

func (b *broadcaster) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

func (b *broadcaster) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for sub := range b.subs {
		switch {
		case ev.Type == EventOutcome:
			if ev.Done < sub.outcome.Done {
				continue
			}
			sub.outcome, sub.pending = ev, true
		case len(sub.queue) < subscriberQueue:
			sub.queue = append(sub.queue, ev)
		default:
			b.dropped++
			continue
		}
		sub.poke()
	}
}

// drain appends sub's pending events to dst, queued lifecycle events in
// publish order and then the pending outcome, and reports whether the
// broadcaster has closed. Everything published before the close is in
// the drain that reports it.
func (b *broadcaster) drain(sub *subscriber, dst []Event) ([]Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dst = append(dst, sub.queue...)
	sub.queue = sub.queue[:0]
	if sub.pending {
		dst = append(dst, sub.outcome)
		sub.pending = false
	}
	return dst, b.closed
}

func (b *broadcaster) droppedCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

func (b *broadcaster) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		sub.poke()
		delete(b.subs, sub)
	}
}

func (sub *subscriber) poke() {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}
