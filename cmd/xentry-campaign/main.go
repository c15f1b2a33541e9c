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
// recovery-rate × detection-latency table. -recover=study instead runs
// the paired Section VI restore-and-reexecute study after the campaign
// (local-only).
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
	"xentry/internal/hv"
	"xentry/internal/inject"
	"xentry/internal/progress"
	"xentry/internal/server"
	"xentry/internal/store"
	"xentry/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xentry-campaign: ")
	injections := flag.Int("injections", 900, "injections per benchmark")
	activations := flag.Int("activations", 160, "hypervisor activations per run")
	seed := flag.Int64("seed", 20140901, "deterministic seed")
	recover := flag.String("recover", "off",
		"recovery on detection: off, microreboot, restore, or policy arms the "+
			"recovery engine; study runs the paired Section VI restore-and-reexecute "+
			"study after the campaign (local-only)")
	checkpointEvery := flag.Int("checkpoint-every", 0,
		"golden-checkpoint interval K: every Kth activation is checkpointed and each run "+
			"replays up to K-1 fault-free activations (0 = default K=1, no replay; a larger K "+
			"shrinks the pool on long -activations runs; negative replays from reset)")
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

	sc := experiments.DefaultScale()
	sc.CampaignInjections = *injections
	sc.Activations = *activations
	sc.Seed = *seed
	switch *prune {
	case "on":
	case "off":
		sc.DisablePrune = true
	default:
		log.Fatalf("-prune must be on or off, got %q", *prune)
	}
	recoverStudy := false
	switch *recover {
	case "", "off", "none":
	case "microreboot", "restore", "policy":
		sc.Recovery = *recover
	case "study":
		recoverStudy = true
	default:
		log.Fatalf("-recover must be off, microreboot, restore, policy, or study, got %q", *recover)
	}
	if *vcpus < 1 || *vcpus > hv.MaxVCPUs {
		log.Fatalf("-vcpus must be in [1,%d], got %d", hv.MaxVCPUs, *vcpus)
	}
	sc.VCPUs = *vcpus
	if *targets != "" {
		for _, name := range strings.Split(*targets, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			sc.Targets = append(sc.Targets, name)
		}
	}
	// Validation here mirrors the server's 400 path, so a typo'd class name
	// fails before training rather than after.
	if err := inject.ValidateTargets(sc.Targets, *vcpus); err != nil {
		log.Fatal(err)
	}
	if *detectors != "" {
		for _, name := range strings.Split(*detectors, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !detect.HasFactory(name) {
				log.Fatalf("unknown detector %q (registered: %s)", name,
					strings.Join(detect.FactoryNames(), ", "))
			}
			sc.Detectors = append(sc.Detectors, name)
		}
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
	runErr := dispatch(serverURL, campaignID, storeDir, *execution, sc,
		*checkpointEvery, *jsonOut, recoverStudy)
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

// dispatch routes the campaign to the coordinator or the local engine.
func dispatch(serverURL, campaignID, storeDir *string, execution string, sc experiments.Scale,
	checkpointEvery int, jsonOut, recoverStudy bool) error {

	if *serverURL != "" {
		if recoverStudy {
			return fmt.Errorf("-recover=study is local-only; run it without -server")
		}
		if *storeDir != "" {
			return fmt.Errorf("-store is local-only; the server keeps its own store per campaign")
		}
		return runRemote(*serverURL, *campaignID, execution, sc, checkpointEvery, jsonOut)
	}
	if execution != "" {
		return fmt.Errorf("-execution applies to -server mode only")
	}
	return runLocal(sc, checkpointEvery, *storeDir, jsonOut, recoverStudy)
}

// runLocal trains and runs the campaign in-process, optionally recording
// every outcome durably under storeDir.
func runLocal(sc experiments.Scale, checkpointEvery int, storeDir string, jsonOut, recoverStudy bool) error {
	log.Printf("training transition detector (%d injections)...", sc.TrainInjections)
	train, err := experiments.Train(sc)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Print(train.Render())
		fmt.Println()
	}

	printer := progress.New(os.Stderr, "campaign", "injections")
	var sink *store.Store
	if storeDir != "" {
		cfg, err := experiments.CampaignConfigFor(sc, train.Best(), checkpointEvery)
		if err != nil {
			return err
		}
		sink, err = store.Open(storeDir, store.Meta{
			CampaignID:  "local",
			Benchmarks:  cfg.Benchmarks,
			Injections:  cfg.InjectionsPerBenchmark,
			Activations: cfg.Activations,
			Seed:        cfg.Seed,
		}, store.Options{})
		if err != nil {
			return err
		}
		defer sink.Close()
		if n := sink.TotalCount(); n > 0 {
			log.Printf("resuming: %d outcomes already in %s", n, storeDir)
		}
	}

	log.Printf("running campaign (%d injections per benchmark)...", sc.CampaignInjections)
	var storeSink inject.ResultSink
	if sink != nil {
		storeSink = sink
	}
	res, err := experiments.CampaignSink(sc, train.Best(), checkpointEvery, printer.Report, storeSink)
	if err != nil {
		return err
	}

	if jsonOut {
		rep := experiments.NewCampaignReport(res, workload.Names())
		data, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
	} else {
		fmt.Println(experiments.RenderCampaign(res))
	}

	if recoverStudy {
		log.Print("running paired recovery campaign...")
		study, err := experiments.Recovery(sc, train.Best())
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
	}
	return nil
}

// runRemote submits the campaign to an xentry-serve coordinator, follows
// its event stream with a live progress line, and renders the returned
// report.
func runRemote(base, id, execution string, sc experiments.Scale, checkpointEvery int, jsonOut bool) error {
	client := &server.Client{Base: base}
	spec := server.CampaignSpec{
		ID:                     id,
		InjectionsPerBenchmark: sc.CampaignInjections,
		Activations:            sc.Activations,
		Seed:                   sc.Seed,
		CheckpointEvery:        checkpointEvery,
		TrainInjections:        sc.TrainInjections,
		Detectors:              sc.Detectors,
		Recovery:               sc.Recovery,
		VCPUs:                  sc.VCPUs,
		Targets:                sc.Targets,
		Execution:              execution,
	}
	if sc.DisablePrune {
		spec.Prune = "off"
	}
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
	if jsonOut {
		data, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return nil
	}
	fmt.Println(experiments.RenderCampaign(rep.Result))
	return nil
}
