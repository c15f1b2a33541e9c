package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xentry/internal/inject"
)

func testServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &Client{Base: ts.URL}
}

// TestServerRoundTrip drives the full HTTP path: submit a campaign, follow
// its event stream to completion, fetch the report, and check the folded
// aggregates are bit-identical to a local single-process RunCampaign.
func TestServerRoundTrip(t *testing.T) {
	cfg := testCampaignConfig()
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, client := testServer(t)
	spec := CampaignSpec{
		ID:                     "round-trip",
		Benchmarks:             cfg.Benchmarks,
		InjectionsPerBenchmark: cfg.InjectionsPerBenchmark,
		Activations:            cfg.Activations,
		Seed:                   cfg.Seed,
	}
	// The campaign may finish before the event stream connects (it is a
	// few dozen simulated injections), so the stream is only guaranteed a
	// terminal event; outcome delivery is asserted via the server counter.
	var sawDone bool
	rep, err := client.RunToCompletion(context.Background(), spec, func(ev Event) {
		if ev.Type == EventCampaignDone {
			sawDone = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Error("event stream ended without a campaign_done event")
	}
	if !reflect.DeepEqual(rep.Result, want) {
		t.Errorf("server aggregates differ from local run:\ngot:  %+v\nwant: %+v",
			rep.Result.Total, want.Total)
	}
	if rep.Injections != want.Total.Injections || rep.Coverage != want.Total.Coverage() {
		t.Errorf("report header (%d, %v) != local (%d, %v)",
			rep.Injections, rep.Coverage, want.Total.Injections, want.Total.Coverage())
	}

	// Status and list agree on the finished campaign.
	st, err := client.Status("round-trip")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Done != st.Total || st.Done != len(cfg.Benchmarks)*cfg.InjectionsPerBenchmark {
		t.Errorf("status = %+v, want done %d/%d", st, st.Total, st.Total)
	}
	list, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "round-trip" {
		t.Errorf("list = %+v, want the one campaign", list)
	}

	// An event stream opened after completion still terminates cleanly.
	if err := client.StreamEvents(context.Background(), "round-trip", nil); err != nil {
		t.Errorf("post-completion event stream: %v", err)
	}

	// Every outcome flowed through the engine's event hook.
	if got := s.outcomesRecorded.Load(); got != int64(st.Total) {
		t.Errorf("outcomesRecorded = %d, want %d", got, st.Total)
	}

	// Resubmitting a registered ID conflicts rather than double-running.
	if _, err := client.Submit(spec); err == nil || !strings.Contains(err.Error(), "already") {
		t.Errorf("resubmit err = %v, want conflict", err)
	}
}

// TestServerReportReadyAtCampaignDone: the SSE stream's terminal event is
// sent only after the campaign's state settled, so the Report that
// RunToCompletion fetches right after campaign_done succeeds on its first
// try for every campaign.
func TestServerReportReadyAtCampaignDone(t *testing.T) {
	_, client := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := CampaignSpec{
				ID:                     fmt.Sprintf("small-%d", i),
				Benchmarks:             []string{"postmark"},
				InjectionsPerBenchmark: 6,
				Activations:            24,
				Seed:                   int64(40 + i),
			}
			rep, err := client.RunToCompletion(context.Background(), spec, nil)
			if err != nil {
				t.Errorf("campaign %s: %v", spec.ID, err)
				return
			}
			if rep.Injections != spec.InjectionsPerBenchmark {
				t.Errorf("campaign %s: report holds %d injections, want %d", spec.ID, rep.Injections, spec.InjectionsPerBenchmark)
			}
		}(i)
	}
	wg.Wait()
}

// TestServerValidationAndNotFound covers the API's error paths.
func TestServerValidationAndNotFound(t *testing.T) {
	s, client := testServer(t)

	if _, err := client.Submit(CampaignSpec{InjectionsPerBenchmark: 0}); err == nil {
		t.Error("zero-injection spec accepted")
	}
	if _, err := client.Submit(CampaignSpec{InjectionsPerBenchmark: 4, Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := client.Submit(CampaignSpec{InjectionsPerBenchmark: 4, ID: "bad/../id"}); err == nil {
		t.Error("path-traversal id accepted")
	}
	if _, err := client.Status("missing"); err == nil {
		t.Error("status for unknown campaign succeeded")
	}
	if _, err := client.Report("missing"); err == nil {
		t.Error("result for unknown campaign succeeded")
	}

	// Metrics endpoint serves the counter page.
	if page := metricsPage(t, client); !strings.Contains(page, "\nxentry_sse_events_dropped_total ") {
		t.Errorf("/metrics lacks xentry_sse_events_dropped_total:\n%s", page)
	}
	_ = s
}

// TestServerRejectsBadSpecs: every field of a spec that describes no
// campaign is a 400 at submission, naming what is wrong, and registers
// nothing; the server then still runs a valid campaign. A negative run
// length once passed submission and panicked the campaign goroutine,
// taking the whole server down, and so did a run length of 2^50, whose
// draw table no allocation could hold.
func TestServerRejectsBadSpecs(t *testing.T) {
	_, client := testServer(t)
	for _, tc := range []struct {
		name, body string
		want       []string // substrings of the error
	}{
		{"malformed", `{"injections_per_benchmark":`, []string{"bad spec"}},
		{"injections-zero", `{"injections_per_benchmark":0}`, []string{"injections_per_benchmark"}},
		{"injections-negative", `{"injections_per_benchmark":-2}`, []string{"injections_per_benchmark"}},
		{"activations-negative", `{"id":"neg","injections_per_benchmark":5,"activations":-3}`, []string{"activations"}},
		{"train-negative", `{"injections_per_benchmark":5,"train_injections":-1}`, []string{"train_injections"}},
		{"injections-2^50", `{"injections_per_benchmark":1125899906842624}`, []string{"injections_per_benchmark"}},
		{"injections-over-max", `{"injections_per_benchmark":1000001}`, []string{"injections_per_benchmark"}},
		{"activations-2^50", `{"id":"huge","benchmarks":["mcf"],"injections_per_benchmark":1,"activations":1125899906842624}`, []string{"activations"}},
		{"activations-over-max", `{"injections_per_benchmark":1,"activations":10001}`, []string{"activations"}},
		{"train-2^50", `{"injections_per_benchmark":5,"train_injections":1125899906842624}`, []string{"train_injections"}},
		{"train-over-max", `{"injections_per_benchmark":5,"train_injections":1000001}`, []string{"train_injections"}},
		{"benchmark-unknown", `{"injections_per_benchmark":4,"benchmarks":["nope"]}`, []string{"nope"}},
		{"benchmark-twice", `{"benchmarks":["mcf","mcf"],"injections_per_benchmark":3,"activations":20}`, []string{"mcf", "twice"}},
		{"detector-unknown", `{"injections_per_benchmark":4,"detectors":["no-such"]}`, []string{"unknown detector"}},
		{"prune", `{"injections_per_benchmark":4,"prune":"maybe"}`, []string{"prune"}},
		{"recovery-unknown", `{"injections_per_benchmark":4,"recovery":"reboot-harder"}`, []string{"microreboot"}},
		{"recover-and-recovery", `{"injections_per_benchmark":4,"recover":true,"recovery":"microreboot"}`, []string{"unknown field", "recover"}},
		{"field-misspelt", `{"id":"typo","benchmarks":["mcf"],"injections_per_benchmark":2,"activations":20,"vcpu":4}`, []string{"unknown field", "vcpu"}},
		{"execution-unknown", `{"injections_per_benchmark":4,"execution":"cloud"}`, []string{"execution"}},
		{"execution-fleet-unlistened", `{"injections_per_benchmark":4,"execution":"fleet"}`, []string{"fleet listener"}},
		{"vcpus-negative", `{"injections_per_benchmark":4,"vcpus":-1}`, []string{"vcpus"}},
		{"vcpus-too-many", `{"injections_per_benchmark":4,"vcpus":99}`, []string{"vcpus"}},
		{"target-unknown", `{"injections_per_benchmark":4,"targets":["cache"]}`, []string{"cache", "gpr"}},
		{"target-apic-one-vcpu", `{"injections_per_benchmark":4,"targets":["apic"]}`, []string{"vcpus"}},
		{"id", `{"injections_per_benchmark":4,"id":"bad/../id"}`, []string{"id"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(client.Base+"/campaigns", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %s, want 400 (body %s)", resp.Status, body)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(body), want) {
					t.Errorf("error %s does not name %q", body, want)
				}
			}
		})
	}

	// A negative checkpoint interval is valid: it disables the pool.
	rep, err := client.RunToCompletion(context.Background(), CampaignSpec{
		ID: "ok", Benchmarks: []string{"mcf"}, InjectionsPerBenchmark: 3, Activations: 20, CheckpointEvery: -1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections != 3 {
		t.Errorf("valid campaign after the rejections tallied %d injections, want 3", rep.Injections)
	}
	if list, err := client.List(); err != nil || len(list) != 1 {
		t.Errorf("registered campaigns = %+v (err %v), want only the valid one", list, err)
	}
}

// metricsPage fetches the /metrics text.
func metricsPage(t *testing.T, client *Client) string {
	t.Helper()
	resp, err := http.Get(strings.TrimRight(client.Base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %v", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServerEventsCoalesceOutcomes pins the SSE contract under a burst the
// client does not read: 1,000 outcome events with rising Done, interleaved
// with 300 lifecycle events, then the settle-and-close runCampaign does.
// Every lifecycle event arrives, in publish order; outcome Done never
// decreases and ends at the last outcome published; nothing is dropped;
// and the terminal event comes last.
func TestServerEventsCoalesceOutcomes(t *testing.T) {
	const outcomes, lifecycle = 1000, 300
	s, client := testServer(t)
	cfg := testCampaignConfig()
	c := &campaign{id: "burst", cfg: cfg, total: outcomes,
		store: testStore(t, cfg, "burst"), events: newBroadcaster(), state: "running", started: time.Now()}
	s.mu.Lock()
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()

	var got []Event
	err := client.StreamEvents(context.Background(), c.id, func(ev Event) {
		got = append(got, ev)
		if ev.Type != "status" {
			return
		}
		// The handler has subscribed, and the client reads nothing more
		// until this callback returns.
		seq := 0
		for done := 1; done <= outcomes; done++ {
			c.events.publish(Event{Type: EventOutcome, Campaign: c.id, Done: done, Total: outcomes})
			if done%10 < 3 {
				c.events.publish(Event{Type: EventShardStart, Campaign: c.id, Shard: seq, Done: done, Total: outcomes})
				seq++
			}
		}
		c.mu.Lock()
		c.state = "done"
		c.mu.Unlock()
		c.events.close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || got[len(got)-1].Type != EventCampaignDone {
		t.Fatalf("stream of %d events did not end with campaign_done", len(got))
	}
	shards, lastDone := 0, 0
	for _, ev := range got[1 : len(got)-1] {
		switch ev.Type {
		case EventShardStart:
			if ev.Shard != shards {
				t.Fatalf("lifecycle event %d arrived as number %d", ev.Shard, shards)
			}
			shards++
		case EventOutcome:
			if ev.Done < lastDone {
				t.Fatalf("outcome Done fell from %d to %d", lastDone, ev.Done)
			}
			lastDone = ev.Done
		default:
			t.Fatalf("unexpected %s event inside the stream", ev.Type)
		}
	}
	if shards != lifecycle || lastDone != outcomes {
		t.Errorf("saw %d lifecycle events and outcomes up to Done=%d, want %d and %d", shards, lastDone, lifecycle, outcomes)
	}
	if page := metricsPage(t, client); !strings.Contains(page, "\nxentry_sse_events_dropped_total 0\n") {
		t.Errorf("/metrics does not report 0 dropped SSE events:\n%s", page)
	}
}
