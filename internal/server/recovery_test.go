package server

import (
	"bufio"
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"xentry/internal/inject"
)

// TestServerRecoveryCampaign drives a microreboot campaign through the
// HTTP coordinator: the folded recovery aggregates must match a local run,
// the SSE outcome events must carry the strategy/outcome labels, and the
// /metrics page must expose xentry_recoveries_total broken down by them.
func TestServerRecoveryCampaign(t *testing.T) {
	cfg := testCampaignConfig()
	cfg.Recovery = "microreboot"
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total.Recovery.Attempts == 0 {
		t.Fatal("local reference campaign attempted no recoveries")
	}

	s, client := testServer(t)
	spec := CampaignSpec{
		ID:                     "recovery",
		Benchmarks:             cfg.Benchmarks,
		InjectionsPerBenchmark: cfg.InjectionsPerBenchmark,
		Activations:            cfg.Activations,
		Seed:                   cfg.Seed,
		Recovery:               "microreboot",
	}
	rep, err := client.RunToCompletion(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Result.Total.Recovery, want.Total.Recovery) {
		t.Errorf("server recovery aggregates differ from local run:\ngot:  %+v\nwant: %+v",
			rep.Result.Total.Recovery, want.Total.Recovery)
	}

	// Every attempt flowed through the event hook into the metrics map.
	s.recoveriesMu.Lock()
	var counted int64
	for k, n := range s.recoveries {
		if k[0] != "microreboot" {
			t.Errorf("recovery metric with strategy %q", k[0])
		}
		counted += n
	}
	s.recoveriesMu.Unlock()
	if counted != int64(want.Total.Recovery.Attempts) {
		t.Errorf("metrics counted %d recoveries, want %d", counted, want.Total.Recovery.Attempts)
	}

	resp, err := http.Get(strings.TrimRight(client.Base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	found := false
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, `xentry_recoveries_total{strategy="microreboot",outcome="full"}`) {
			found = true
		}
	}
	if !found {
		t.Error("metrics page lacks xentry_recoveries_total{strategy=\"microreboot\",outcome=\"full\"}")
	}
}

// TestServerRejectsBadRecoverySpec: an unknown strategy name is a 400 at
// submission, not a failed campaign.
func TestServerRejectsBadRecoverySpec(t *testing.T) {
	_, client := testServer(t)
	_, err := client.Submit(CampaignSpec{InjectionsPerBenchmark: 4, Recovery: "reboot-harder"})
	if err == nil || !strings.Contains(err.Error(), "microreboot") {
		t.Errorf("unknown recovery strategy: err = %v, want 400 naming the accepted set", err)
	}
}
