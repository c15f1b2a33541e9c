package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"xentry/internal/inject"
	"xentry/internal/recovery"
	"xentry/internal/server"
	"xentry/internal/sim"
	"xentry/internal/store"
	"xentry/internal/wire"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"inj_per_s", "1/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the traced run's metrics that every workload
// measures, so they form the JSON object of every --trace 1 run. Times
// here are never zero on any workload; counts may be (fleet counters read
// 0 off the fleet, recovery counts 0 with no engine armed). The traced
// run prints further, workload-specific timings (experiments.*, server.*,
// fleet.shard_ms, pruned and recovered run latencies, uncore per-site
// latencies) in its table only.
var perLayerMetrics = []metricDef{
	{"inject.collect_dataset_s", "s"},
	{"inject.dataset_samples", "count"},
	{"ml.train_s", "s"},
	{"ml.evaluate_s", "s"},
	{"inject.prepare_s", "s"},
	{"inject.run_one.full_us.p50", "us"},
	{"inject.run_one.full_us.p99", "us"},
	{"inject.run_one.full_us.n", "count"},
	{"inject.run_one.converged_us.n", "count"},
	{"inject.run_one.dead_us.n", "count"},
	{"inject.run_one.recovered_us.n", "count"},
	{"inject.full", "count"},
	{"inject.pruned_dead", "count"},
	{"inject.pruned_converged", "count"},
	{"inject.pruned_frac", "ratio"},
	{"inject.site.gpr.run_one_us.p50", "us"},
	{"inject.site.gpr.run_one_us.p99", "us"},
	{"inject.site.ctl.run_one_us.p50", "us"},
	{"inject.site.ctl.run_one_us.p99", "us"},
	{"inject.site.gpr.pruned_frac", "ratio"},
	{"inject.site.ctl.pruned_frac", "ratio"},
	{"inject.site.dtlb.pruned_frac", "ratio"},
	{"inject.site.apic.pruned_frac", "ratio"},
	{"inject.site.pmu.pruned_frac", "ratio"},
	{"inject.site.pgtable.pruned_frac", "ratio"},
	{"sim.golden_run_s", "s"},
	{"sim.restore_us.p50", "us"},
	{"sim.restore_us.p99", "us"},
	{"sim.step_us.p50", "us"},
	{"sim.step_us.p99", "us"},
	{"recovery.attempts", "count"},
	{"recovery.strategy.restore", "count"},
	{"recovery.strategy.microreboot", "count"},
	{"recovery.class.full", "count"},
	{"recovery.class.degraded", "count"},
	{"recovery.class.guest-corrupted", "count"},
	{"recovery.class.failed", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.record_bytes", "bytes"},
	{"store.wal_bytes", "bytes"},
	{"store.replay_s", "s"},
	{"store.result_s", "s"},
	{"fleet.leases", "count"},
	{"fleet.batches", "count"},
	{"fleet.records_per_batch", "count"},
	{"fleet.requeues", "count"},
	{"fleet.slowdowns", "count"},
	{"trace.self_sum_frac", "ratio"},
	{"trace.overhead", "ratio"},
}

// buildLayers derives a traced iteration's per-layer metrics from its
// spans, its result, and three probes run after the timed phases on the
// iteration's own data: the sim probe (golden run, RestoreFrom and Step
// on the campaign's golden streams), the wire probe (record encode and
// decode of every outcome), and the store probe (WAL replay and result
// assembly).
func buildLayers(e *env, out *output, tr *tracer) (*layerSet, error) {
	probe := tr.begin("probes", 0, -1)
	if err := simProbe(out.cfg, tr, probe); err != nil {
		return nil, err
	}
	tr.finish(probe)
	l := &layerSet{spans: tr.spans}
	l.self = selfTimes(l.spans)

	for _, n := range []string{"fig3", "train", "fig7", "campaign", "recovery_study", "recovery_class", "sweeps", "fig11"} {
		l.add("experiments."+n+"_s", l.total("experiments."+n), "s")
	}
	l.add("inject.collect_dataset_s", l.total("inject.collect_dataset"), "s")
	l.add("inject.dataset_samples", float64(out.samples), "count")
	l.add("ml.train_s", l.total("ml.train"), "s")
	l.add("ml.evaluate_s", l.total("ml.evaluate"), "s")
	l.add("inject.prepare_s", l.total("inject.prepare"), "s")
	for _, kind := range []string{"full", "converged", "dead", "recovered"} {
		name := "inject.run_one." + kind
		l.addLatency(name+"_us", "us", l.durations(func(s *span) bool { return s.name == name }), 1)
	}
	t := out.prune
	p := t.Prune
	l.add("inject.full", float64(p.Full), "count")
	l.add("inject.pruned_dead", float64(p.Dead), "count")
	l.add("inject.pruned_converged", float64(p.Converged), "count")
	l.add("inject.pruned_frac", frac(p.Dead+p.Converged, t.Injections), "ratio")
	for _, site := range inject.Sites() {
		sv := int8(site)
		name := "inject.site." + site.String()
		l.addLatency(name+".run_one_us", "us", l.durations(func(s *span) bool {
			return s.site == sv && strings.HasPrefix(s.name, "inject.run_one.")
		}), 1)
		row := p.BySite[site]
		l.add(name+".pruned_frac", frac(row.Dead+row.Converged, row.Dead+row.Converged+row.Full), "ratio")
	}
	l.add("sim.golden_run_s", l.total("sim.golden_run"), "s")
	l.addLatency("sim.restore_us", "us", l.durations(func(s *span) bool { return s.name == "sim.restore" }), 1)
	l.addLatency("sim.step_us", "us", l.durations(func(s *span) bool { return s.name == "sim.step" }), 1)

	r := out.recovery.Recovery
	l.add("recovery.attempts", float64(r.Attempts), "count")
	l.add("recovery.strategy.restore", float64(r.ByStrategy[recovery.StrategyRestore]), "count")
	l.add("recovery.strategy.microreboot", float64(r.ByStrategy[recovery.StrategyMicroreboot]), "count")
	for _, c := range []recovery.Class{recovery.ClassFull, recovery.ClassDegraded, recovery.ClassGuestCorrupted, recovery.ClassFailed} {
		l.add("recovery.class."+c.String(), float64(r.ByClass[c]), "count")
	}

	if err := wireProbe(l, out); err != nil {
		return nil, err
	}
	if err := storeProbe(e, l, out); err != nil {
		return nil, err
	}

	var fs server.FleetStats // zero off the fleet
	if out.fleet != nil {
		fs = *out.fleet
	}
	l.add("fleet.leases", float64(fs.Leases), "count")
	l.add("fleet.batches", float64(fs.Batches), "count")
	l.add("fleet.records_per_batch", frac(int(fs.Records), int(fs.Batches)), "count")
	l.add("fleet.requeues", float64(fs.Requeues), "count")
	l.add("fleet.slowdowns", float64(fs.Slowdowns), "count")
	l.add("server.submit_ms", l.total("server.submit")*1e3, "ms")
	l.add("server.first_outcome_s", l.total("server.first_outcome"), "s")
	l.add("server.report_ms", l.total("server.report")*1e3, "ms")
	l.addLatency("fleet.shard_ms", "ms", l.durations(func(s *span) bool { return s.name == "fleet.shard" }), 1e-3)
	l.add("trace.self_sum_frac", l.selfSumFrac(), "ratio")
	return l, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// simProbe times the simulator layer (hv, mem and cpu behind sim.Machine)
// on the campaign's golden streams: one golden run per benchmark, then a
// Step per activation while checkpointing before each, then a RestoreFrom
// of every checkpoint into a second machine.
func simProbe(cfg inject.CampaignConfig, tr *tracer, parent int32) error {
	cfg = cfg.Normalized()
	for bi := range cfg.Benchmarks {
		sc := cfg.BenchmarkSim(bi)
		if err := tr.do("sim.golden_run", 0, parent, func() error {
			_, err := sim.GoldenRun(sc, cfg.Activations)
			return err
		}); err != nil {
			return err
		}
		m, err := sim.NewMachine(sc)
		if err != nil {
			return err
		}
		m.SetModel(cfg.Model)
		cps := make([]*sim.Checkpoint, cfg.Activations)
		for i := range cps {
			cps[i] = m.Checkpoint()
			t0 := time.Now()
			if _, err := m.Step(); err != nil {
				return err
			}
			tr.add("sim.step", 0, parent, -1, t0, time.Now())
		}
		m2, err := sim.NewMachine(sc)
		if err != nil {
			return err
		}
		m2.SetModel(cfg.Model)
		for _, cp := range cps {
			t0 := time.Now()
			if err := m2.RestoreFrom(cp); err != nil {
				return err
			}
			tr.add("sim.restore", 0, parent, -1, t0, time.Now())
		}
	}
	return nil
}

// wireProbe times wire.AppendRecordFrame and Decoder.DecodeRecord over
// every outcome of the iteration's campaign, and checks the decoded
// records fold to the same tallies.
func wireProbe(l *layerSet, out *output) error {
	var block, scratch []byte
	n := 0
	t0 := time.Now()
	for _, bench := range out.cfg.Normalized().Benchmarks {
		outs := out.outcomes[bench]
		for i := range outs {
			block, scratch = wire.AppendRecordFrame(block, scratch, bench, i, &outs[i])
			n++
		}
	}
	enc := time.Since(t0)
	if n == 0 {
		return fmt.Errorf("wire probe: no outcomes recorded")
	}
	dec := wire.NewDecoder()
	type rec struct {
		bench string
		o     inject.Outcome
	}
	decoded := make([]rec, 0, n)
	t1 := time.Now()
	for rest := block; len(rest) > 0; {
		payload, next, err := wire.SplitFrame(rest)
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		bench, _, o, err := dec.DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		decoded = append(decoded, rec{bench, o})
		rest = next
	}
	decT := time.Since(t1)
	tallies := map[string]*inject.Tally{}
	for _, r := range decoded {
		if tallies[r.bench] == nil {
			tallies[r.bench] = inject.NewTally()
		}
		tallies[r.bench].Add(r.o)
	}
	for bench, t := range tallies {
		t.Normalize()
		if !reflect.DeepEqual(t, out.result.PerBenchmark[bench]) {
			return fmt.Errorf("wire probe: decoded %s records fold to a different tally", bench)
		}
	}
	l.add("wire.encode_ns", float64(enc.Nanoseconds())/float64(n), "ns")
	l.add("wire.decode_ns", float64(decT.Nanoseconds())/float64(n), "ns")
	l.add("wire.record_bytes", float64(len(block))/float64(n), "bytes")
	return nil
}

// storeProbe times the resume path: store.Open replaying a finished
// campaign's WAL, then Result assembling the aggregates, which must equal
// the campaign's. A campaign without a store of its own is first written
// through AppendBatch with binary record frames, the fleet ingest path.
func storeProbe(e *env, l *layerSet, out *output) error {
	if out.cleanup != "" {
		defer os.RemoveAll(out.cleanup)
	}
	dir := out.storeDir
	if dir == "" {
		var err error
		if dir, err = e.tempDir("store"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg := out.cfg.Normalized()
		st, err := store.Open(dir, store.Meta{CampaignID: "xbench", Benchmarks: cfg.Benchmarks,
			Injections: cfg.InjectionsPerBenchmark, Activations: cfg.Activations, Seed: cfg.Seed}, store.Options{})
		if err != nil {
			return err
		}
		var scratch []byte
		for _, bench := range cfg.Benchmarks {
			outs := out.outcomes[bench]
			for lo := 0; lo < len(outs); lo += 256 {
				hi := min(lo+256, len(outs))
				entries := make([]store.BatchEntry, 0, hi-lo)
				for i := lo; i < hi; i++ {
					var frame []byte
					frame, scratch = wire.AppendRecordFrame(nil, scratch, bench, i, &outs[i])
					entries = append(entries, store.BatchEntry{Bench: bench, Index: i, Outcome: outs[i], Frame: frame})
				}
				if _, err := st.AppendBatch(entries); err != nil {
					st.Close()
					return err
				}
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	var walBytes int64
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return err
		}
		walBytes += fi.Size()
	}
	t0 := time.Now()
	st, err := store.Open(dir, store.Meta{}, store.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer st.Close()
	replay := time.Since(t0)
	t1 := time.Now()
	res, err := st.Result()
	if err != nil {
		return err
	}
	result := time.Since(t1)
	if !reflect.DeepEqual(res, out.result) {
		return fmt.Errorf("store probe: replayed result differs from the campaign's")
	}
	l.add("store.wal_bytes", float64(walBytes), "bytes")
	l.add("store.replay_s", replay.Seconds(), "s")
	l.add("store.result_s", result.Seconds(), "s")
	return nil
}
