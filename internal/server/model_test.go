package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xentry/internal/core"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/wire"
)

// TestFleetTrainedCampaign: a fleet campaign with a transition model,
// run by two RunWorker goroutines on the tree its coordinator trained and
// shipped, reports exactly what the same spec served in process reports,
// and the model takes part: the VM-transition detector catches faults.
func TestFleetTrainedCampaign(t *testing.T) {
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := NewServer(Config{DataDir: t.TempDir(), Workers: 2, Fleet: f})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{Base: ts.URL}

	spec := CampaignSpec{
		ID:                     "trained-fleet",
		Benchmarks:             []string{"canneal", "bzip2"},
		InjectionsPerBenchmark: 60,
		Activations:            48,
		Seed:                   29,
		TrainInjections:        300,
		Execution:              "fleet",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, WorkerOptions{
				Coordinator:   f.Addr(),
				Campaign:      spec.ID,
				Name:          fmt.Sprintf("m%d", i),
				BatchRecords:  8,
				FlushInterval: 5 * time.Millisecond,
				RetryInterval: 20 * time.Millisecond,
				MaxDials:      600,
			})
		}(i)
	}
	fleetRep, err := client.RunToCompletion(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}

	spec.ID, spec.Execution = "trained-pool", ""
	poolRep, err := client.RunToCompletion(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fleetRep, poolRep) {
		t.Errorf("trained fleet report diverges from the in-process one:\n got %+v\nwant %+v", fleetRep.Result.Total, poolRep.Result.Total)
	}
	if poolRep.TechniqueShares[core.TechVMTransition.String()] == 0 {
		t.Errorf("the transition model caught nothing (shares %v); the campaign did not exercise it", poolRep.TechniqueShares)
	}
}

// heldModel is a small trained tree for the held-Hello tests.
func heldModel(t *testing.T) *ml.Tree {
	t.Helper()
	var d ml.Dataset
	for i := uint64(0); i < 64; i++ {
		d = append(d, ml.NewSample(i%7, i*13%64, i%5, i%3, i*i%11, i%4 != 0 || i%7 == 2))
	}
	tree, err := ml.Train(d, ml.DefaultRandomTree(3))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestFleetHelloWaitsForModel sends a Hello while the coordinator is still
// training. The coordinator holds the session — it counts toward the run
// — and neither refuses it nor answers before the model exists. Once
// training ends, the Welcome carries the coordinator's tree. A campaign
// whose training fails, or which is cancelled during training, refuses
// the held session instead, and Run returns the training error or the
// cancellation; closing the fleet drops the held session.
func TestFleetHelloWaitsForModel(t *testing.T) {
	model := heldModel(t)
	trainErr := errors.New("injected training failure")
	for _, tc := range []struct {
		name    string
		stop    string       // what ends the hold: "" training, "fail", "cancel" or "close" (the fleet)
		reply   wire.MsgType // 0: the session closes without one
		wantErr error
	}{
		{"trained", "", wire.MsgWelcome, context.Canceled},
		{"training-fails", "fail", wire.MsgError, trainErr},
		{"cancelled", "cancel", wire.MsgError, context.Canceled},
		{"fleet-closed", "close", 0, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, cfg, specJSON := fleetSpec(t, "held-"+tc.name)
			f, err := NewFleet("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			e := &Engine{Store: testStore(t, cfg, spec.ID), Fleet: f, Spec: specJSON}
			trained := make(chan struct{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ran := make(chan error, 1)
			go func() {
				_, err := e.run(ctx, cfg, func() (*ml.Tree, error) {
					<-trained
					if tc.stop == "fail" {
						return nil, trainErr
					}
					return model, nil
				})
				ran <- err
			}()

			run := awaitRun(t, f, spec.ID)
			c := dialRaw(t, f.Addr())
			if _, err := c.conn.Write(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: spec.ID})); err != nil {
				t.Fatal(err)
			}
			for sessions := 0; sessions != 1; time.Sleep(time.Millisecond) {
				run.mu.Lock()
				sessions = run.sessions
				run.mu.Unlock()
			}
			switch tc.stop {
			case "cancel":
				cancel()
			case "close":
				f.Close()
			default:
				close(trained)
			}
			var m wire.Msg
			if payload, err := c.r.Next(); err == nil {
				if m, err = wire.DecodeMsg(payload); err != nil {
					t.Fatal(err)
				}
			}
			if m.Type != tc.reply {
				t.Fatalf("reply to the held hello: type %d, want %d", m.Type, tc.reply)
			}
			if m.Type == wire.MsgWelcome {
				got, err := wire.DecodeModel(m.Welcome.Model)
				if err != nil || got.String() != model.String() || got.Cfg != model.Cfg {
					t.Fatalf("welcome model is not the coordinator's tree: %v", err)
				}
			}
			cancel()
			if tc.stop == "cancel" || tc.stop == "close" {
				close(trained) // Run returns once training does
			}
			if err := <-ran; !errors.Is(err, tc.wantErr) {
				t.Errorf("Run = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// awaitRun waits until the fleet has registered the campaign's run.
func awaitRun(t *testing.T, f *Fleet, id string) *fleetRun {
	t.Helper()
	for {
		if run, _ := f.lookup(id); run != nil {
			return run
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetRefusesOldProtocol: a protocol-3 worker, which would train its
// own model and ignore the shipped one, is refused.
func TestFleetRefusesOldProtocol(t *testing.T) {
	cfg := inject.CampaignConfig{Benchmarks: []string{"canneal"}, InjectionsPerBenchmark: 8}
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := newFleetRun(&Engine{Store: testStore(t, cfg, "old-proto"), Fleet: f, Spec: []byte("{}")}, cfg, time.Minute, 3)
	if err := f.start(run); err != nil {
		t.Fatal(err)
	}
	defer f.release(run)
	run.serveModel(nil)
	m, err := dialRaw(t, f.Addr()).roundTrip(wire.AppendHello(nil, wire.Hello{Version: 3, Campaign: "old-proto"}))
	if err != nil || m.Type != wire.MsgError || !strings.Contains(m.Error.Err, "protocol version 3 unsupported") {
		t.Fatalf("protocol-3 hello: reply %+v (%v), want a refusal naming version 3", m, err)
	}
}

// TestWorkerConfigureTracksModel: a worker's cached config and prepared
// benchmark survive a redial into the same Welcome, but not a new model
// under the same spec (a coordinator on another host may grow another
// tree), and a damaged model or a spec the coordinator would have
// rejected is an error.
func TestWorkerConfigureTracksModel(t *testing.T) {
	_, _, specJSON := fleetSpec(t, "configure")
	welcome := func(model []byte) *wire.Welcome {
		return &wire.Welcome{Version: wire.ProtoVersion, Spec: specJSON, Model: model}
	}
	st := &workerState{opts: &WorkerOptions{}}
	if err := st.configure(welcome(nil)); err != nil || st.cfg.Model != nil {
		t.Fatalf("no model: err %v, installed %v", err, st.cfg.Model)
	}
	prepared := &inject.BenchmarkRun{}
	st.benchAt, st.br = 0, prepared
	model := wire.AppendModel(nil, heldModel(t))
	if err := st.configure(welcome(model)); err != nil || st.cfg.Model == nil || st.br != nil {
		t.Fatalf("new model, same spec: err %v, installed %v, prepared benchmark kept %v", err, st.cfg.Model != nil, st.br != nil)
	}
	st.benchAt, st.br = 0, prepared
	if err := st.configure(welcome(model)); err != nil || st.br != prepared {
		t.Fatalf("same Welcome again: err %v, prepared benchmark kept %v", err, st.br == prepared)
	}
	if err := st.configure(welcome(model[:len(model)-1])); err == nil {
		t.Fatal("a damaged model configured without error")
	}
	bad := &wire.Welcome{Version: wire.ProtoVersion, Spec: []byte(`{"injections_per_benchmark":5,"activations":-3}`)}
	if err := st.configure(bad); err == nil || !strings.Contains(err.Error(), "activations") {
		t.Fatalf("a spec with a negative run length: err %v, want its validation error", err)
	}
}
