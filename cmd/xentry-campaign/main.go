// Command xentry-campaign reproduces the paper's detection-effectiveness
// evaluation (Section V-D to V-F and Section VI): it trains the transition
// detector, runs a fault-injection campaign across all six benchmarks, and
// prints Fig. 8 (overall coverage by technique), Fig. 9 (coverage by
// consequence), Fig. 10 (detection-latency CDF), and Table II (undetected
// fault causes).
//
// Usage:
//
//	xentry-campaign [-injections N] [-activations N] [-seed S] [-checkpoint-every K]
//	                [-vcpus N] [-targets a,b] [-prune on|off]
//	                [-recover off|microreboot|restore|policy|study]
//	                [-detectors a,b] [-json] [-store DIR]
//	                [-server URL [-campaign ID] [-execution pool|fleet]]
//
// -json emits the machine-readable campaign report (the same encoding the
// campaign server returns) instead of the rendered figures. -store makes
// the run durable: every outcome lands in an append-only WAL under DIR,
// and re-running with the same flags resumes instead of restarting.
// -server dispatches the campaign to a running xentry-serve coordinator
// and streams its progress. -recover arms the live recovery engine
// (internal/recovery): on detection the machine is microrebooted (or
// restored, or routed through the policy table) and the attempt is
// classified against the golden reference; the report then carries the
// recovery-rate × detection-latency table. -recover=study instead reruns
// the campaign with the Section VI restore-and-reexecute recovery on and
// prints the paired study, the campaign itself as its baseline
// (local-only).
//
// The flags build one experiments.Spec. A local run trains and runs it in
// process; -server submits it as it is, so both draw the same plans from
// -seed, train the same model, and print the same report.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"xentry/internal/detect"
	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/progress"
	"xentry/internal/server"
	"xentry/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xentry-campaign: ")
	injections := flag.Int("injections", 900, "injections per benchmark")
	activations := flag.Int("activations", 160, "hypervisor activations per run")
	seed := flag.Int64("seed", 20140901, "deterministic seed")
	recover := flag.String("recover", "off",
		"recovery on detection: off, microreboot, restore, or policy arms the "+
			"recovery engine; study reruns the campaign with Section VI restore-and-reexecute "+
			"recovery and prints the paired study (local-only)")
	checkpointEvery := flag.Int("checkpoint-every", 0,
		"golden-checkpoint interval K: the pool has a slot every K activations, built where "+
			"a plan restores one, and each run replays up to K-1 fault-free activations "+
			"(0 = default K=1, no replay; a larger K shrinks the pool on long -activations runs; "+
			"negative replays from reset)")
	prune := flag.String("prune", "on",
		"convergence pruning: on (default) or off (every run executes its full "+
			"activation budget — the differential baseline; outcomes are bit-identical either way)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable campaign report instead of figures")
	storeDir := flag.String("store", "", "durable result-store directory (resumes an interrupted campaign)")
	serverURL := flag.String("server", "", "dispatch the campaign to a running xentry-serve coordinator")
	campaignID := flag.String("campaign", "", "campaign ID for -server mode (empty = server assigns one)")
	execution := flag.String("execution", "",
		"campaign data plane for -server mode: pool (the default: in process on the "+
			"coordinator, inject.ResumeCampaign writing into the store) or "+
			"fleet (remote xentry-worker processes over the binary shard protocol)")
	vcpus := flag.Int("vcpus", 1,
		"virtual CPUs per campaign machine (1 = the legacy single-CPU engine, "+
			"bit-identical to pre-SMP campaigns)")
	targets := flag.String("targets", "",
		"comma-separated fault-site classes to inject into "+
			"(available: "+strings.Join(inject.TargetNames(), ", ")+"; empty = gpr)")
	detectors := flag.String("detectors", "",
		"comma-separated plugin detectors to run behind the built-in pipeline "+
			"(registered names: "+strings.Join(detect.FactoryNames(), ", ")+")")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	spec := experiments.Spec{
		ID:                     *campaignID,
		InjectionsPerBenchmark: *injections,
		Activations:            *activations,
		Seed:                   *seed,
		CheckpointEvery:        *checkpointEvery,
		TrainInjections:        experiments.DefaultScale().TrainInjections,
		Detectors:              names(*detectors),
		Prune:                  *prune,
		Execution:              *execution,
		VCPUs:                  *vcpus,
		Targets:                names(*targets),
	}
	study := *recover == "study"
	if !study {
		spec.Recovery = *recover
	}
	// The spec's own validation, the server's 400 path, so a typo fails
	// before training rather than after.
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	// Profiles must land even when the run fails, so the dispatch below
	// funnels through one exit point instead of log.Fatal-ing mid-flight.
	runErr := dispatch(*serverURL, *storeDir, spec, *jsonOut, study)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle live heap before the snapshot
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// names splits a comma-separated flag value, dropping empty names.
func names(list string) []string {
	var out []string
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// dispatch routes the campaign to the coordinator or the local engine.
func dispatch(serverURL, storeDir string, spec experiments.Spec, jsonOut, study bool) error {
	if serverURL != "" {
		if study {
			return fmt.Errorf("-recover=study is local-only; run it without -server")
		}
		if storeDir != "" {
			return fmt.Errorf("-store is local-only; the server keeps its own store per campaign")
		}
		return runRemote(serverURL, spec, jsonOut)
	}
	if spec.Execution != "" {
		return fmt.Errorf("-execution applies to -server mode only")
	}
	return runLocal(spec, storeDir, jsonOut, study)
}

// runLocal trains and runs the spec's campaign in process, optionally
// recording every outcome durably under storeDir, and with study reruns
// it with Section VI recovery on.
func runLocal(spec experiments.Spec, storeDir string, jsonOut, study bool) error {
	cfg, err := spec.CampaignConfig()
	if err != nil {
		return err
	}
	sc := spec.TrainScale()
	log.Printf("training transition detector (%d injections)...", sc.TrainInjections)
	train, err := experiments.Train(sc)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Print(train.Render())
		fmt.Println()
	}
	cfg.Model = train.Best()

	var sink inject.ResultSink
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Meta{
			CampaignID:  "local",
			Benchmarks:  cfg.Benchmarks,
			Injections:  cfg.InjectionsPerBenchmark,
			Activations: cfg.Activations,
			Seed:        cfg.Seed,
		}, store.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		if n := st.TotalCount(); n > 0 {
			log.Printf("resuming: %d outcomes already in %s", n, storeDir)
		}
		sink = st
	}

	log.Printf("running campaign (%d injections per benchmark)...", cfg.InjectionsPerBenchmark)
	run := cfg
	run.Progress = progress.New(os.Stderr, "campaign", "injections").Report
	res, err := inject.ResumeCampaign(context.Background(), run, sink)
	if err != nil {
		return err
	}
	if err := printReport(experiments.NewCampaignReport(res, cfg.Benchmarks), jsonOut); err != nil {
		return err
	}

	if study {
		log.Print("rerunning the campaign with Section VI recovery...")
		st, err := experiments.RecoveryAgainst(cfg, res)
		if err != nil {
			return err
		}
		fmt.Println(st.Render())
	}
	return nil
}

// runRemote submits the spec to an xentry-serve coordinator, follows its
// event stream with a live progress line, and renders the returned
// report.
func runRemote(base string, spec experiments.Spec, jsonOut bool) error {
	client := &server.Client{Base: base}
	st, err := client.Submit(spec)
	if err != nil {
		return err
	}
	log.Printf("campaign %s submitted to %s (%d injections total)", st.ID, base, st.Total)

	printer := progress.New(os.Stderr, "campaign "+st.ID, "injections")
	err = client.StreamEvents(context.Background(), st.ID, func(ev server.Event) {
		switch ev.Type {
		case server.EventOutcome, server.EventCampaignDone:
			printer.Report(ev.Done, ev.Total)
		case server.EventWorkerDead:
			log.Printf("worker %d died; shards reassigned", ev.Worker)
		}
	})
	if err != nil {
		return err
	}

	rep, err := client.Report(st.ID)
	if err != nil {
		return err
	}
	return printReport(rep, jsonOut)
}

// printReport writes the report as JSON or as the rendered figures.
func printReport(rep *experiments.CampaignReport, jsonOut bool) error {
	if jsonOut {
		data, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	fmt.Println(experiments.RenderCampaign(rep.Result))
	return nil
}
