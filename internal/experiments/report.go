package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"xentry/internal/core"
	"xentry/internal/inject"
	"xentry/internal/stats"
)

// builtinTechniques are the paper's three techniques in figure order; they
// always render, even with zero detections, so default campaigns keep the
// seed's exact columns.
var builtinTechniques = []core.Technique{
	core.TechHWException, core.TechAssertion, core.TechVMTransition,
}

// campaignTechniques returns the techniques the report and figures break
// down by: the built-in trio followed by any extra techniques present in
// the aggregates (verdicts from detectors registered outside
// internal/core), sorted by registered ID. Plugin campaigns grow report
// columns with no code changes here.
func campaignTechniques(res *inject.CampaignResult) []core.Technique {
	builtin := map[core.Technique]bool{core.TechNone: true}
	for _, tech := range builtinTechniques {
		builtin[tech] = true
	}
	extra := map[core.Technique]bool{}
	scan := func(tl *inject.Tally) {
		if tl == nil {
			return
		}
		for tech := range tl.DetectedBy {
			if !builtin[tech] {
				extra[tech] = true
			}
		}
		for tech := range tl.Latencies {
			if !builtin[tech] {
				extra[tech] = true
			}
		}
	}
	scan(res.Total)
	for _, tl := range res.PerBenchmark {
		scan(tl)
	}
	techs := append([]core.Technique{}, builtinTechniques...)
	for tech := range extra {
		techs = append(techs, tech)
	}
	sort.Slice(techs[len(builtinTechniques):], func(i, j int) bool {
		rest := techs[len(builtinTechniques):]
		return rest[i] < rest[j]
	})
	return techs
}

// CampaignReport is the machine-readable encoding of the campaign's
// evaluation: overall coverage, per-benchmark technique shares (Fig. 8),
// detection-latency CDF points (Fig. 10), the Table II undetected-cause
// rows, plus the full folded aggregates so every figure can be re-rendered
// from the report alone. The xentry-campaign -json flag and the campaign
// server's result endpoint emit exactly this structure.
type CampaignReport struct {
	Injections int     `json:"injections"`
	Manifested int     `json:"manifested"`
	Coverage   float64 `json:"coverage"`
	// Pruned summarizes run provenance: how many injections were
	// dead-value pre-pruned, convergence early-exited, or executed in
	// full. Provenance only — every outcome statistic above is
	// bit-identical with pruning on or off.
	Pruned inject.PruneStats `json:"pruned"`
	// Recovery summarizes the recovery engine's attempts. Nil (absent from
	// the JSON) when the campaign never attempted one, so engine-off
	// reports keep their exact pre-engine encoding.
	Recovery *RecoveryReport `json:"recovery,omitempty"`
	// TechniqueShares is the campaign-wide share of manifested faults each
	// technique caught, keyed by technique name.
	TechniqueShares map[string]float64 `json:"technique_shares"`
	// PerSite breaks detection coverage down by fault-site class, in
	// inject.Sites() order, omitting classes the campaign never injected
	// into — so legacy register-only reports keep their exact pre-taxonomy
	// encoding only when empty, and otherwise grow rows per class.
	PerSite      []SiteReport      `json:"per_site,omitempty"`
	PerBenchmark []BenchmarkReport `json:"per_benchmark"`
	// LatencyCDF holds Fig. 10's CDF sampled at Fig10Points per technique.
	LatencyCDF map[string][]CDFPoint `json:"latency_cdf"`
	TableII    []CauseRow            `json:"table2"`
	// Result is the full campaign aggregate the figures fold from.
	Result *inject.CampaignResult `json:"result"`
}

// BenchmarkReport is one benchmark's row of the report.
type BenchmarkReport struct {
	Benchmark       string             `json:"benchmark"`
	Injections      int                `json:"injections"`
	Manifested      int                `json:"manifested"`
	Undetected      int                `json:"undetected"`
	Coverage        float64            `json:"coverage"`
	TechniqueShares map[string]float64 `json:"technique_shares"`
}

// SiteReport is one fault-site class's detection-coverage row.
type SiteReport struct {
	Site       string  `json:"site"`
	Injections int     `json:"injections"`
	Manifested int     `json:"manifested"`
	Detected   int     `json:"detected"`
	Coverage   float64 `json:"coverage"`
}

// CDFPoint is one sampled point of a latency CDF: the fraction P of
// detections with latency ≤ LE instructions.
type CDFPoint struct {
	LE float64 `json:"le"`
	P  float64 `json:"p"`
}

// CauseRow is one Table II row.
type CauseRow struct {
	Cause string  `json:"cause"`
	Count int     `json:"count"`
	Share float64 `json:"share"`
}

// NewCampaignReport builds the machine-readable report from campaign
// aggregates.
func NewCampaignReport(res *inject.CampaignResult, benchmarks []string) *CampaignReport {
	tot := res.Total
	rep := &CampaignReport{
		Injections:      tot.Injections,
		Manifested:      tot.Manifested,
		Coverage:        tot.Coverage(),
		Pruned:          tot.Prune,
		Recovery:        NewRecoveryReport(tot.Recovery),
		TechniqueShares: map[string]float64{},
		LatencyCDF:      map[string][]CDFPoint{},
		Result:          res,
	}
	techs := campaignTechniques(res)
	for _, tech := range techs {
		rep.TechniqueShares[tech.String()] = tot.TechniqueShare(tech)
		lats := tot.Latencies[tech]
		xs := make([]float64, len(lats))
		for i, l := range lats {
			xs[i] = float64(l)
		}
		cdf := stats.NewCDF(xs)
		points := make([]CDFPoint, len(Fig10Points))
		for i, p := range cdf.Points(Fig10Points) {
			points[i] = CDFPoint{LE: Fig10Points[i], P: p}
		}
		rep.LatencyCDF[tech.String()] = points
	}
	for _, site := range inject.Sites() {
		st := tot.BySite[site]
		if st == nil || st.Injections == 0 {
			continue
		}
		rep.PerSite = append(rep.PerSite, SiteReport{
			Site:       site.String(),
			Injections: st.Injections,
			Manifested: st.Manifested,
			Detected:   st.Detected,
			Coverage:   st.Coverage(),
		})
	}
	for _, bench := range benchmarks {
		tl := res.PerBenchmark[bench]
		if tl == nil {
			continue
		}
		br := BenchmarkReport{
			Benchmark:       bench,
			Injections:      tl.Injections,
			Manifested:      tl.Manifested,
			Undetected:      tl.Undetected,
			Coverage:        tl.Coverage(),
			TechniqueShares: map[string]float64{},
		}
		for _, tech := range techs {
			br.TechniqueShares[tech.String()] = tl.TechniqueShare(tech)
		}
		rep.PerBenchmark = append(rep.PerBenchmark, br)
	}
	for _, cause := range inject.Causes() {
		if cause == inject.CauseNone {
			continue
		}
		n := tot.ByCause[cause]
		rep.TableII = append(rep.TableII, CauseRow{
			Cause: cause.String(), Count: n, Share: safeDiv(n, tot.Undetected),
		})
	}
	return rep
}

// EncodeJSON renders the report as indented JSON.
func (r *CampaignReport) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: encode report: %w", err)
	}
	return append(data, '\n'), nil
}

// RenderCampaign renders every campaign figure — Fig. 8, Fig. 9, Fig. 10,
// Table II — from the aggregates, whether they came from a local run, a
// store directory, or a server's report.
func RenderCampaign(res *inject.CampaignResult) string {
	var b strings.Builder
	b.WriteString(RenderFig8(res))
	b.WriteString("\n\n")
	b.WriteString(RenderFig9(res))
	b.WriteString("\n\n")
	b.WriteString(RenderFig10(res))
	b.WriteString("\n\n")
	b.WriteString(RenderSiteCoverage(res))
	b.WriteString("\n\n")
	b.WriteString(RenderTableII(res))
	if rec := RenderRecovery(res); rec != "" {
		b.WriteString("\n\n")
		b.WriteString(rec)
	}
	return b.String()
}
