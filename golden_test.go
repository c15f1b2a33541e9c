package xentry

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/workload"
)

// TestGoldenDigests recomputes the result digests committed in
// testdata/golden.txt and fails on any difference, so a change that is
// meant to be pure mechanism (recovery snapshots, restore paths, pruning,
// dispatch) cannot move a number unnoticed. Each digest is the SHA-256 of
// a deterministic text:
//
//   - report-quick: `xentry-report -quick` without its closing timing line,
//     which runs the Section VI live recovery study (snapshot at every VM
//     exit, restore and re-execute on detection) and the microreboot
//     classification;
//   - report-default: `xentry-report` at DefaultScale, the same way (the
//     paper-report workload of xbench pins a prefix of this digest);
//   - campaign-policy-smp4: the `xentry-campaign -json` report of a 4-vCPU
//     campaign over every fault-site class with the recovery policy armed;
//   - campaign-restore-dtlb-k7: the same for a 2-vCPU dtlb+gpr campaign
//     with the restore engine armed and checkpoint interval 7;
//   - campaign-gpr: the same for a single-vCPU gpr campaign at the default
//     checkpoint interval with pruning on, so the prune provenance counts
//     are pinned too;
//   - dataset-quick: the QuickScale training dataset CollectDataset
//     gathers, one line per sample (features, then the label), in order.
//
// A change that moves a digest on purpose replaces the line in
// testdata/golden.txt with the value this test prints, and says why.
func TestGoldenDigests(t *testing.T) {
	want := readGolden(t, "testdata/golden.txt")
	sc := experiments.QuickScale()
	sc.Seed = 20140901 // xentry-report's default seed
	train, err := experiments.Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign goldens run the report's campaign identity (plans from
	// seed+13, CampaignConfigFor) on other machines and engines.
	campaign := func(vcpus int, targets []string, recovery string, every int) func() ([]byte, error) {
		return func() ([]byte, error) {
			cfg, err := experiments.Spec{
				InjectionsPerBenchmark: 50,
				Activations:            sc.Activations,
				Seed:                   sc.Seed + 13,
				CheckpointEvery:        every,
				Recovery:               recovery,
				VCPUs:                  vcpus,
				Targets:                targets,
			}.CampaignConfig()
			if err != nil {
				return nil, err
			}
			cfg.Model = train.Best()
			res, err := inject.RunCampaign(cfg)
			if err != nil {
				return nil, err
			}
			return experiments.NewCampaignReport(res, cfg.Benchmarks).EncodeJSON()
		}
	}
	for _, tc := range []struct {
		name string
		run  func() ([]byte, error)
	}{
		{"report-quick", func() ([]byte, error) {
			var b bytes.Buffer
			err := experiments.WriteReport(&b, sc, nil)
			return b.Bytes(), err
		}},
		{"report-default", func() ([]byte, error) {
			var b bytes.Buffer
			err := experiments.WriteReport(&b, experiments.DefaultScale(), nil)
			return b.Bytes(), err
		}},
		{"campaign-policy-smp4", campaign(4, inject.TargetNames(), "policy", 0)},
		{"campaign-restore-dtlb-k7", campaign(2, []string{"dtlb", "gpr"}, "restore", 7)},
		{"campaign-gpr", campaign(1, nil, "", 0)},
		{"dataset-quick", func() ([]byte, error) {
			ds, err := inject.CollectDataset(inject.DatasetConfig{
				FaultFreeRuns:          sc.TrainFaultFreeRuns,
				Activations:            sc.Activations,
				InjectionsPerBenchmark: sc.TrainInjections / len(workload.Names()),
				Seed:                   sc.Seed,
			})
			if err != nil {
				return nil, err
			}
			var b bytes.Buffer
			for _, s := range ds {
				for _, f := range s.Features {
					fmt.Fprintf(&b, "%d ", f)
				}
				fmt.Fprintln(&b, s.Correct)
			}
			return b.Bytes(), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != want[tc.name] {
				t.Errorf("digest %s, want %s", got, want[tc.name])
			}
		})
	}
}

// readGolden parses "name digest" lines, skipping blanks and # comments.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		golden[f[0]] = f[1]
	}
	return golden
}
