package workload

import (
	"math/rand"
	"testing"

	"xentry/internal/hv"
	"xentry/internal/stats"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 6 {
		t.Fatalf("%d profiles, want 6 (paper's benchmark set)", len(ps))
	}
	want := []string{"mcf", "bzip2", "freqmine", "canneal", "x264", "postmark"}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("profile %d = %s, want %s", i, p.Name, want[i])
		}
		for _, mode := range []Mode{PV, HVM} {
			if len(p.Mix[mode]) == 0 {
				t.Errorf("%s has empty %v mix", p.Name, mode)
			}
			if p.MeanInterval[mode] <= 0 {
				t.Errorf("%s has no %v interval", p.Name, mode)
			}
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("postmark")
	if err != nil || p.Name != "postmark" {
		t.Fatalf("ByName: %v, %v", p, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if len(Names()) != 6 {
		t.Errorf("Names() = %v", Names())
	}
}

func TestSampleReasonRespectsMix(t *testing.T) {
	p, _ := ByName("postmark")
	rng := rand.New(rand.NewSource(1))
	counts := map[hv.ExitReason]int{}
	for i := 0; i < 20000; i++ {
		counts[p.SampleReason(PV, rng)]++
	}
	// Every mix entry must be reachable and frequencies must track the
	// aggregate weight per reason (a reason may appear in both the common
	// base mix and a benchmark-specific extra).
	var total int
	weights := map[hv.ExitReason]int{}
	for _, w := range p.Mix[PV] {
		total += w.Weight
		weights[w.Reason] += w.Weight
	}
	for reason, weight := range weights {
		got := counts[reason]
		want := 20000 * weight / total
		if got == 0 {
			t.Errorf("reason %v never sampled", reason)
		}
		if weight >= 10 && (got < want/2 || got > want*2) {
			t.Errorf("reason %v sampled %d times, want ≈%d", reason, got, want)
		}
	}
}

func TestPVIsHypercallHeavy(t *testing.T) {
	// The paper's premise: PV produces more hypercall exits than HVM.
	for _, p := range Profiles() {
		rng := rand.New(rand.NewSource(2))
		hcPV, hcHVM := 0, 0
		for i := 0; i < 5000; i++ {
			if p.SampleReason(PV, rng).Category() == hv.CatHypercall {
				hcPV++
			}
			if p.SampleReason(HVM, rng).Category() == hv.CatHypercall {
				hcHVM++
			}
		}
		if hcPV <= hcHVM {
			t.Errorf("%s: PV hypercalls %d <= HVM %d", p.Name, hcPV, hcHVM)
		}
	}
}

func TestSampleIntervalPositiveAndSpread(t *testing.T) {
	p, _ := ByName("freqmine")
	rng := rand.New(rand.NewSource(3))
	var xs []float64
	for i := 0; i < 2000; i++ {
		iv := p.SampleInterval(PV, rng)
		if iv < 200 {
			t.Fatalf("interval %f below floor", iv)
		}
		xs = append(xs, iv)
	}
	s := stats.Summarize(xs)
	if s.Max/s.Min < 3 {
		t.Errorf("interval spread too narrow: %v", s)
	}
}

// Fig. 3's calibration targets: PV activation frequencies land in the
// 5K–100K/s band for the common benchmarks with freqmine bursting beyond
// 300K/s, while HVM stays mostly between 2K and 10K/s.
func TestFrequencyCalibration(t *testing.T) {
	const handlerCost = 250
	for _, p := range Profiles() {
		rng := rand.New(rand.NewSource(4))
		var pv, hvm []float64
		for i := 0; i < 400; i++ {
			pv = append(pv, p.FrequencySample(PV, rng, handlerCost))
			hvm = append(hvm, p.FrequencySample(HVM, rng, handlerCost))
		}
		sp := stats.Summarize(pv)
		sh := stats.Summarize(hvm)
		if sp.Median < 2_000 || sp.Median > 150_000 {
			t.Errorf("%s PV median %f out of the paper's band", p.Name, sp.Median)
		}
		if sh.Median < 1_000 || sh.Median > 20_000 {
			t.Errorf("%s HVM median %f out of the paper's band", p.Name, sh.Median)
		}
		if sp.Median <= sh.Median {
			t.Errorf("%s: PV median %f not above HVM %f", p.Name, sp.Median, sh.Median)
		}
	}
}

func TestFreqminePeaksHigh(t *testing.T) {
	p, _ := ByName("freqmine")
	rng := rand.New(rand.NewSource(5))
	var maxFreq float64
	for i := 0; i < 2000; i++ {
		if f := p.FrequencySample(PV, rng, 250); f > maxFreq {
			maxFreq = f
		}
	}
	// The paper's peak is ~650K/s; the burst model must reach that order.
	if maxFreq < 250_000 {
		t.Errorf("freqmine peak %f, want bursts above 250K/s", maxFreq)
	}
}

func TestPostmarkFastestPV(t *testing.T) {
	// Postmark drives the hypervisor hardest (highest overhead in Fig. 7).
	rates := map[string]float64{}
	for _, p := range Profiles() {
		rng := rand.New(rand.NewSource(6))
		var xs []float64
		for i := 0; i < 500; i++ {
			xs = append(xs, p.FrequencySample(PV, rng, 250))
		}
		rates[p.Name] = stats.Summarize(xs).Median
	}
	for name, r := range rates {
		if name != "postmark" && r > rates["postmark"] {
			t.Errorf("%s median rate %f exceeds postmark %f", name, r, rates["postmark"])
		}
	}
}

func TestModeString(t *testing.T) {
	if PV.String() != "pv" || HVM.String() != "hvm" {
		t.Error("mode names wrong")
	}
}

// sampleReasonRef is SampleReason summing the mode's weights on every
// call, as it did before the table cached the totals.
func sampleReasonRef(p *Profile, mode Mode, rng Source) hv.ExitReason {
	total := 0
	for _, w := range p.Mix[mode] {
		total += w.Weight
	}
	pick := rng.Intn(total)
	for _, w := range p.Mix[mode] {
		pick -= w.Weight
		if pick < 0 {
			return w.Reason
		}
	}
	return p.Mix[mode][len(p.Mix[mode])-1].Reason
}

// TestCachedTotalsDrawLikeSummedWeights: SampleReason with the table's
// cached per-mode weight totals consumes the same draws and returns the
// same reasons as summing the weights on every call.
func TestCachedTotalsDrawLikeSummedWeights(t *testing.T) {
	for _, p := range Profiles() {
		for _, mode := range []Mode{PV, HVM} {
			a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			for i := 0; i < 2000; i++ {
				if got, want := p.SampleReason(mode, a), sampleReasonRef(p, mode, b); got != want {
					t.Fatalf("%s %v draw %d: %v, reference %v", p.Name, mode, i, got, want)
				}
			}
		}
	}
}

// TestByNameSharesTable: every machine looks its profile up by name, so
// the lookup returns the shared table's profile without allocating.
func TestByNameSharesTable(t *testing.T) {
	a, _ := ByName("mcf")
	b, _ := ByName("mcf")
	if a != b {
		t.Error("ByName built a second mcf profile")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("postmark") }); n != 0 {
		t.Errorf("ByName allocates %v times per call", n)
	}
}
