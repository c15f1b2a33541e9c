// Package server is the distributed campaign service: an engine that
// executes an injection campaign into a durable result store (Engine),
// and the HTTP/JSON coordinator that exposes it (Server) — submit
// campaigns, watch status, stream progress events, fetch results rendered
// exactly like single-process runs.
//
// A campaign runs in process or on the worker fleet. In process, the
// engine runs inject.ResumeCampaign with the store as its sink — the same
// executor RunCampaign and xentry-campaign -store use — and turns every
// recorded outcome into an event. On the fleet, runs of plans are leased
// to remote workers (fleet.go). Either way outcomes fold at their original
// plan index, so the final aggregates are bit-identical to single-process
// inject.RunCampaign with the same seed, however the work was split,
// interrupted, resumed or reassigned.
package server

import (
	"context"
	"fmt"
	"time"

	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/store"
)

// EventType labels an engine progress event.
type EventType string

// Engine event types. The engine itself never emits EventCampaignDone or
// EventCampaignFailed: they end the server's SSE stream, built from the
// campaign's settled state.
const (
	EventBenchmarkStart EventType = "benchmark_start"
	EventShardStart     EventType = "shard_start"
	EventShardDone      EventType = "shard_done"
	EventShardRequeued  EventType = "shard_requeued"
	EventWorkerDead     EventType = "worker_dead"
	EventOutcome        EventType = "outcome"
	EventCampaignDone   EventType = "campaign_done"
	EventCampaignFailed EventType = "campaign_failed"
)

// Event is one engine progress event. Done/Total are cumulative campaign
// progress (stored outcomes over planned injections) and are set on every
// event type. Engine.OnEvent sees every event, so /metrics counts every
// outcome; the SSE stream coalesces outcome events, so a client sees the
// newest outcome at each wake-up of its stream handler.
type Event struct {
	Type     EventType `json:"type"`
	Campaign string    `json:"campaign,omitempty"`
	Bench    string    `json:"bench,omitempty"`
	Shard    int       `json:"shard,omitempty"`
	Worker   int       `json:"worker,omitempty"`
	Attempt  int       `json:"attempt,omitempty"`
	Done     int       `json:"done"`
	Total    int       `json:"total"`
	Err      string    `json:"err,omitempty"`
	// Technique is the registered name of the detecting technique on
	// outcome events whose injection was detected (empty otherwise).
	// Plugin techniques flow through by name: the server's per-technique
	// /metrics counters key on this string, not on any enum.
	Technique string `json:"technique,omitempty"`
	// Pruned is the run-provenance label on outcome events whose run was
	// pruned ("dead" or "converged", empty for full runs); it feeds the
	// server's xentry_pruned_total metric, which counts every outcome.
	// On the coalesced SSE stream it labels only the outcomes delivered.
	Pruned string `json:"pruned,omitempty"`
	// RecoveryStrategy/RecoveryOutcome label outcome events on which the
	// recovery engine fired: the strategy applied and the final outcome
	// class ("full", "degraded", "guest-corrupted", "failed"). They feed
	// the xentry_recoveries_total metric; SSE carries them only on the
	// outcomes it delivers.
	RecoveryStrategy string `json:"recovery_strategy,omitempty"`
	RecoveryOutcome  string `json:"recovery_outcome,omitempty"`
	// Site is the fault-site class of the injected plan on outcome events
	// ("gpr", "ctl", "dtlb", "apic", "pmu", "pgtable"); it feeds the
	// xentry_injections_total{site="..."} metric, and SSE carries it only
	// on the outcomes it delivers.
	Site string `json:"site,omitempty"`
}

// Engine executes one campaign into a durable store, in process or over
// the fleet. Zero values get defaults on Run.
type Engine struct {
	// Store receives every outcome and assembles the result. Required; a
	// partially full store resumes — stored indices are never re-planned.
	Store *store.Store
	// ShardSize, when positive, is the number of plan indices per fleet
	// lease. 0 sizes each lease from the work left: ⌈Q/2W⌉ plans for Q
	// plans still queued and W worker sessions serving the campaign, at
	// least 64 and at most what is left of the benchmark.
	ShardSize int
	// MaxAttempts bounds failed attempts per fleet lease before the
	// campaign fails (default 3). Worker deaths and lease expiries do not
	// consume attempts.
	MaxAttempts int
	// ShardTimeout is the fleet lease timeout: a lease with no batch for
	// this long is requeued (0 = 2 minutes).
	ShardTimeout time.Duration
	// OnEvent, when set, receives every engine event. It is called
	// synchronously from worker and ingest goroutines and must be safe
	// for that.
	OnEvent func(Event)
	// Fleet, when set, executes the campaign over the remote worker fleet
	// instead of in process: plans are leased to connected xentry-worker
	// processes over the binary shard protocol, and their batched results
	// are group-committed off the HTTP/JSON path. The in-process run takes
	// its parallelism from the config's Workers.
	Fleet *Fleet
	// Spec is the canonical campaign spec JSON served to fleet workers in
	// the Welcome message; each worker derives its CampaignConfig (plans,
	// detectors) from it. Required in fleet mode, and it must describe
	// exactly the config passed to Run. The transition model is not
	// derived from it: the Welcome ships the config's Model, encoded, and
	// workers install that tree instead of training one.
	Spec []byte
}

func (e *Engine) emit(ev Event) {
	if e.OnEvent != nil {
		e.OnEvent(ev)
	}
}

// Run executes the campaign to completion — every plan index the store
// does not already hold — and returns the normalized aggregates from the
// store. The context cancels the whole run; a cancelled or failed run
// resumes later from whatever the store persisted. Fleet workers receive
// cfg.Model in their Welcome.
func (e *Engine) Run(ctx context.Context, cfg inject.CampaignConfig) (*inject.CampaignResult, error) {
	return e.run(ctx, cfg, func() (*ml.Tree, error) { return cfg.Model, nil })
}

// run is Run with the model still to train: train yields cfg.Model. In
// process it trains before the first injection; on the fleet the run
// registers and queues its plans while train runs, and worker Hellos wait
// for the model.
func (e *Engine) run(ctx context.Context, cfg inject.CampaignConfig, train func() (*ml.Tree, error)) (*inject.CampaignResult, error) {
	if e.Store == nil {
		return nil, fmt.Errorf("server: engine needs a store")
	}
	cfg = cfg.Normalized()
	if e.Fleet != nil {
		return e.runFleet(ctx, cfg, train)
	}
	var err error
	if cfg.Model, err = train(); err != nil {
		return nil, err
	}
	total := len(cfg.Benchmarks) * cfg.InjectionsPerBenchmark
	return inject.ResumeCampaign(ctx, cfg, eventSink{Store: e.Store, e: e, total: total})
}

// eventSink is the in-process campaign's result sink: the store, plus an
// outcome event for every outcome it records.
type eventSink struct {
	*store.Store
	e     *Engine
	total int
}

func (s eventSink) Record(bench string, index int, o inject.Outcome) error {
	if err := s.Store.Record(bench, index, o); err != nil {
		return err
	}
	s.e.emit(outcomeEvent(s.Meta().CampaignID, bench, &o, s.TotalCount(), s.total))
	return nil
}

// outcomeEvent labels one freshly stored outcome for metrics and the SSE
// stream (which coalesces outcomes).
func outcomeEvent(campaign, bench string, o *inject.Outcome, done, total int) Event {
	ev := Event{Type: EventOutcome, Campaign: campaign, Bench: bench,
		Done: done, Total: total, Site: o.Plan.Site.String()}
	if o.Detected.Detected() {
		ev.Technique = o.Detected.String()
	}
	if o.Pruned != inject.PruneNone {
		ev.Pruned = o.Pruned.String()
	}
	if o.Recovery.Attempted {
		ev.RecoveryStrategy = o.Recovery.Strategy.String()
		ev.RecoveryOutcome = o.Recovery.Class.String()
	}
	return ev
}
