package inject

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"xentry/internal/core"
	"xentry/internal/ml"
	"xentry/internal/sim"
	"xentry/internal/workload"
)

// diffCampaign is a full campaign at the quick experiment scale: every
// benchmark, full detection, default checkpointing.
func diffCampaign() CampaignConfig {
	return CampaignConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		InjectionsPerBenchmark: 40,
		Activations:            80,
		Seed:                   7,
		Workers:                2,
		Detection:              core.FullDetection(),
	}
}

// mechanism is one column of the equivalence matrix: a setting of the
// three mechanisms that decide how fast a result is computed and must
// never decide the result. Each keeps exactly one oracle, its off
// setting: replay from reset for the checkpoint pool, the full budget for
// pruning, and the semantics-table switch for the threaded translator.
type mechanism struct {
	every    int // CheckpointEvery; -1 replays every run from reset
	prune    bool
	threaded bool
}

// mechanisms are the matrix columns, K ∈ {off, 1, 16} × prune {off, on} ×
// dispatch {switch, threaded}, the reference cell (K=off, prune off,
// switch) first.
var mechanisms = func() []mechanism {
	var ms []mechanism
	for _, every := range []int{-1, 1, 16} {
		for _, prune := range []bool{false, true} {
			for _, threaded := range []bool{false, true} {
				ms = append(ms, mechanism{every, prune, threaded})
			}
		}
	}
	return ms
}()

// String names the cell, e.g. "K=16,prune=on,threaded".
func (m mechanism) String() string {
	k := "off"
	if m.every > 0 {
		k = strconv.Itoa(m.every)
	}
	return "K=" + k + "," + m.noK()
}

// noK names the cell's prune and dispatch settings.
func (m mechanism) noK() string {
	s := "prune=off,"
	if m.prune {
		s = "prune=on,"
	}
	if m.threaded {
		return s + "threaded"
	}
	return s + "switch"
}

// campaign returns cfg with the cell's mechanisms set.
func (m mechanism) campaign(cfg CampaignConfig) CampaignConfig {
	cfg.CheckpointEvery = m.every
	cfg.DisablePrune = !m.prune
	cfg.SwitchDispatch = !m.threaded
	return cfg
}

// runner returns a runner for cfg's machine with the cell's mechanisms set.
func (m mechanism) runner(t *testing.T, cfg sim.Config, targets []string) *Runner {
	t.Helper()
	cfg.SwitchDispatch = !m.threaded
	r, err := NewRunner(cfg, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Targets = targets
	r.CheckpointEvery = m.every
	r.DisablePrune = !m.prune
	return r
}

// spelling is an extra matrix cell: the same campaign written another way.
type spelling struct {
	name  string
	spell func(*CampaignConfig)
}

// checkProvenance holds a cell's prune provenance to its mechanisms: the
// counts partition the injections, a prune-off cell runs everything in
// full, and a prune-on cell of a row whose pruning stays live both
// dead-prunes and converges.
func checkProvenance(t *testing.T, total *Tally, prune, live bool) {
	t.Helper()
	p := total.Prune
	if p.Dead+p.Converged+p.Full != total.Injections {
		t.Fatalf("provenance %+v does not partition %d injections", p, total.Injections)
	}
	switch {
	case !prune && p.Full != total.Injections:
		t.Fatalf("prune-off cell pruned: %+v", p)
	case prune && live && (p.Dead == 0 || p.Converged == 0):
		t.Fatalf("pruning did not fire: %+v", p)
	}
}

// TestEquivalenceMatrix is the proof obligation of every mechanism that
// only makes results cheaper: each row's result must be identical, prune
// provenance aside, in every cell of the mechanism matrix and under every
// alternative spelling of the same campaign. The rows are the result
// shapes the simulator produces: a plain campaign with a trained model,
// the Section VI recovery campaign, microreboot campaigns without and with
// a model (the model's reference-replay false positives are the second
// stage of the prune gate), a 4-vCPU multi-site Section VI campaign, and
// training-data collection. Each row also checks that the mechanism it
// guards fired, so an equality of two runs that never exercised it cannot
// pass for a proof.
func TestEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign matrix")
	}
	model := testModel(t)
	withModel := diffCampaign()
	withModel.Model = model
	sec6 := diffCampaign()
	sec6.Model = model
	sec6.Recover = true
	sec6.InjectionsPerBenchmark = 25
	microreboot := recoveryCampaign()
	microrebootModel := recoveryCampaign()
	microrebootModel.Model = model
	smp := smpCampaign()
	smp.Benchmarks = []string{"mcf"}
	smp.InjectionsPerBenchmark = 20
	smp.Recover = true
	smp.Model = model

	recovered := func(tl *Tally) bool { return tl.Recovered > 0 }
	attempted := func(tl *Tally) bool { return tl.Recovery.Attempts > 0 }
	rows := []struct {
		name string
		cfg  CampaignConfig
		// livePrune: pruning stays live, so prune-on cells must both
		// dead-prune and converge. Under an armed engine the reference
		// replay's first detection turns pruning off for the runner.
		livePrune bool
		// fired, when set, is the row's own mechanism firing in every cell.
		fired func(*Tally) bool
		// spellings are extra cells, run at the default mechanisms.
		spellings []spelling
	}{
		{name: "campaign", cfg: withModel, livePrune: true, spellings: []spelling{
			{"vcpus=1,targets=gpr", func(c *CampaignConfig) { c.VCPUs, c.Targets = 1, []string{"gpr"} }},
			{"recovery=off", func(c *CampaignConfig) { c.Recovery = "off" }},
			{"recovery=none", func(c *CampaignConfig) { c.Recovery = "none" }},
		}},
		{name: "sec6-recover", cfg: sec6, livePrune: true, fired: recovered},
		{name: "microreboot", cfg: microreboot, livePrune: true, fired: attempted},
		{name: "microreboot-model", cfg: microrebootModel, fired: attempted},
		{name: "smp4-sec6-mcf", cfg: smp, livePrune: true, fired: recovered},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var ref *CampaignResult
			check := func(t *testing.T, cfg CampaignConfig, prune bool) {
				res, err := RunCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res.Normalize()
				checkProvenance(t, res.Total, prune, row.livePrune)
				if row.fired != nil && !row.fired(res.Total) {
					t.Fatalf("recovery never fired: recovered %d, attempts %d",
						res.Total.Recovered, res.Total.Recovery.Attempts)
				}
				stripPrune(res)
				if ref == nil {
					ref = res
				} else if !reflect.DeepEqual(res, ref) {
					t.Fatalf("result diverges from the reference cell\ngot:  %+v\nwant: %+v", res.Total, ref.Total)
				}
			}
			for _, m := range mechanisms {
				if !t.Run(m.String(), func(t *testing.T) { check(t, m.campaign(row.cfg), m.prune) }) && ref == nil {
					return // without the reference cell nothing compares
				}
			}
			for _, s := range row.spellings {
				t.Run(s.name, func(t *testing.T) {
					cfg := row.cfg
					s.spell(&cfg)
					check(t, cfg, true)
				})
			}
		})
	}

	t.Run("dataset", func(t *testing.T) {
		var ref ml.Dataset
		for _, m := range mechanisms {
			if m.every != -1 {
				continue // dataset runs have no checkpoint interval
			}
			ok := t.Run(m.noK(), func(t *testing.T) {
				ds, err := CollectDataset(DatasetConfig{
					Benchmarks:             workload.Names(),
					Mode:                   workload.PV,
					FaultFreeRuns:          2,
					Activations:            80,
					InjectionsPerBenchmark: 30,
					Seed:                   7,
					Workers:                2,
					DisablePrune:           !m.prune,
					SwitchDispatch:         !m.threaded,
				})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = ds
				} else if !reflect.DeepEqual(ds, ref) {
					t.Fatal("dataset diverges from the reference cell")
				}
			})
			if !ok && ref == nil {
				return // without the reference cell nothing compares
			}
		}
	})
}

// TestEquivalencePerPlan is the matrix at the runner level: for every plan
// of a random population, each cell's Outcome must equal the reference
// cell's in every field but Pruned, so a failure names the exact plan. The
// rows are a 1-vCPU register machine and a 4-vCPU machine drawing from
// every site class; prune-on cells must exercise each class's pruning
// mechanism — dead synthesis and convergence for registers, dead
// synthesis for apic, pmu and pgtable, convergence for dtlb.
func TestEquivalencePerPlan(t *testing.T) {
	smp := sim.DefaultConfig("postmark", 5)
	smp.VCPUs = 4
	rows := []struct {
		name    string
		cfg     sim.Config
		targets []string
		plans   int
		seed    int64
		// dead and converged are the site classes each mechanism must
		// fire for in prune-on cells.
		dead, converged []Site
	}{
		{"postmark-gpr", sim.DefaultConfig("postmark", 5), nil, 300, 23,
			[]Site{SiteGPR}, []Site{SiteGPR}},
		{"postmark-smp4-all", smp,
			NormalizeTargets([]string{"gpr", "dtlb", "apic", "pmu", "pgtable"}), 400, 31,
			[]Site{SiteAPIC, SitePMU, SitePT}, []Site{SiteTLB}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var plans []Plan
			var want []Outcome
			for i, m := range mechanisms {
				ok := t.Run(m.String(), func(t *testing.T) {
					r := m.runner(t, row.cfg, row.targets)
					if plans == nil {
						rng := rand.New(rand.NewSource(row.seed))
						for range row.plans {
							plans = append(plans, r.RandomPlan(rng))
						}
					}
					w := r.NewWorker()
					var dead, converged [NumSites]int
					for j, plan := range plans {
						o, err := w.RunOne(plan)
						if err != nil {
							t.Fatal(err)
						}
						switch o.Pruned {
						case PruneDead:
							dead[plan.Site]++
						case PruneConverged:
							converged[plan.Site]++
						}
						if !m.prune && o.Pruned != PruneNone {
							t.Fatalf("prune-off cell pruned plan %v: %v", plan, o.Pruned)
						}
						o.Pruned = PruneNone
						if i == 0 {
							want = append(want, o)
						} else if !reflect.DeepEqual(o, want[j]) {
							t.Fatalf("plan %v diverges from the reference cell:\ngot  %+v\nwant %+v", plan, o, want[j])
						}
					}
					if !m.prune {
						return
					}
					for _, s := range row.dead {
						if dead[s] == 0 {
							t.Errorf("dead synthesis never fired for %v: dead=%v converged=%v", s, dead, converged)
						}
					}
					for _, s := range row.converged {
						if converged[s] == 0 {
							t.Errorf("convergence never fired for %v: dead=%v converged=%v", s, dead, converged)
						}
					}
				})
				if !ok && i == 0 {
					return // without the reference cell nothing compares
				}
			}
		})
	}
}
