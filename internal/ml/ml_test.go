package ml

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// synthetic builds a dataset where incorrect executions have RT shifted by
// delta, mimicking the counter-signature difference of faulty runs.
func synthetic(n int, delta uint64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for i := 0; i < n; i++ {
		vmer := uint64(rng.Intn(10))
		base := 100 + vmer*37
		rt := base + uint64(rng.Intn(20))
		br := rt / 5
		rm := rt / 4
		wm := rt / 6
		correct := i%3 != 0
		if !correct {
			rt += delta
			br += delta / 4
		}
		d = append(d, NewSample(vmer, rt, br, rm, wm, correct))
	}
	return d
}

func TestEntropy(t *testing.T) {
	if e := entropy(10, 0); e != 0 {
		t.Errorf("pure set entropy = %f, want 0", e)
	}
	if e := entropy(0, 10); e != 0 {
		t.Errorf("pure set entropy = %f, want 0", e)
	}
	if e := entropy(5, 5); math.Abs(e-1.0) > 1e-12 {
		t.Errorf("balanced entropy = %f, want 1", e)
	}
	// Paper's worked example: 10 correct / 5 incorrect. (The paper prints
	// 0.276 using a different log convention; base-2 entropy is 0.918.)
	if e := entropy(10, 5); math.Abs(e-0.9183) > 1e-3 {
		t.Errorf("entropy(10,5) = %f, want ≈0.918", e)
	}
}

func TestPaperWorkedExampleSelectsCleanCut(t *testing.T) {
	// Section III-B: 15 points; cutting RT at 200 separates classes
	// perfectly and must beat the noisy cut at 100.
	var d Dataset
	for i := 0; i < 10; i++ {
		d = append(d, NewSample(0, uint64(50+i*15), 0, 0, 0, true)) // RT ≤ 200
	}
	for i := 0; i < 5; i++ {
		d = append(d, NewSample(0, uint64(210+i*10), 0, 0, 0, false)) // RT > 200
	}
	b := newBuilder(d, Config{MinLeaf: 1})
	s, ok := b.bestSplitOn(FeatRT, 0, len(d), 10, 5, entropy(10, 5))
	if !ok {
		t.Fatal("no split found")
	}
	// The clean boundary lies between the last correct value (185) and the
	// first incorrect one (210); the scanner anchors on the left value.
	if s.threshold < 185 || s.threshold >= 210 {
		t.Errorf("threshold = %d, want the clean cut in [185,210)", s.threshold)
	}
	if math.Abs(s.gain-entropy(10, 5)) > 1e-12 {
		t.Errorf("gain = %f, want full parent entropy for a perfect split", s.gain)
	}
	if s.leftC != 10 || s.leftI != 0 {
		t.Errorf("left counts = %d correct, %d incorrect, want 10, 0", s.leftC, s.leftI)
	}
}

func TestDecisionTreeLearnsSeparableData(t *testing.T) {
	train := synthetic(2000, 500, 1)
	test := synthetic(800, 500, 2)
	tree, err := Train(train, DefaultDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(tree, test)
	if c.Accuracy() < 0.95 {
		t.Errorf("accuracy = %f on cleanly separable data: %v", c.Accuracy(), c)
	}
}

func TestRandomTreeLearnsSeparableData(t *testing.T) {
	train := synthetic(2000, 500, 3)
	test := synthetic(800, 500, 4)
	tree, err := Train(train, DefaultRandomTree(7))
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(tree, test)
	if c.Accuracy() < 0.95 {
		t.Errorf("random tree accuracy = %f: %v", c.Accuracy(), c)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(nil, DefaultDecisionTree()); err == nil {
		t.Fatal("expected error on empty training set")
	}
}

func TestSingleClassCollapsesToLeaf(t *testing.T) {
	var d Dataset
	for i := 0; i < 50; i++ {
		d = append(d, NewSample(uint64(i), uint64(i), 0, 0, 0, true))
	}
	tree, err := Train(d, DefaultDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Leaf || !tree.Root.Correct {
		t.Errorf("single-class tree should be one correct leaf, got %d nodes", tree.Size())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	train := synthetic(2000, 30, 5) // small delta forces deep trees
	for _, depth := range []int{1, 2, 4, 8} {
		tree, err := Train(train, Config{MaxDepth: depth, MinLeaf: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Depth(); got > depth {
			t.Errorf("Depth() = %d > MaxDepth %d", got, depth)
		}
	}
}

func TestClassifyCountsComparisons(t *testing.T) {
	train := synthetic(500, 500, 6)
	tree, err := Train(train, DefaultDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	_, cmp := tree.Classify(train[0].Features)
	if cmp < 1 || cmp > tree.Depth() {
		t.Errorf("comparisons = %d, depth = %d", cmp, tree.Depth())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	train := synthetic(1000, 100, 8)
	t1, _ := Train(train, DefaultRandomTree(42))
	t2, _ := Train(train, DefaultRandomTree(42))
	if t1.String() != t2.String() {
		t.Error("same seed produced different random trees")
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TruePositive: 90, FalseNegative: 10, TrueNegative: 880, FalsePositive: 20}
	if got := c.Total(); got != 1000 {
		t.Errorf("Total = %d", got)
	}
	if got := c.Accuracy(); math.Abs(got-0.97) > 1e-12 {
		t.Errorf("Accuracy = %f", got)
	}
	if got := c.Coverage(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Coverage = %f", got)
	}
	if got := c.FalsePositiveRate(); math.Abs(got-20.0/900.0) > 1e-12 {
		t.Errorf("FPR = %f", got)
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
	var zero Confusion
	if zero.Accuracy() != 0 || zero.Coverage() != 0 || zero.FalsePositiveRate() != 0 {
		t.Error("zero matrix should produce zero rates")
	}
}

func TestTreeStringShowsFeatures(t *testing.T) {
	train := synthetic(500, 500, 9)
	tree, _ := Train(train, DefaultDecisionTree())
	s := tree.String()
	if !strings.Contains(s, "if ") || !strings.Contains(s, "Correct") {
		t.Errorf("tree rendering missing structure:\n%s", s)
	}
}

func TestFeatureNames(t *testing.T) {
	want := []string{"VMER", "RT", "BR", "RM", "WM"}
	for i, w := range want {
		if FeatureName(i) != w {
			t.Errorf("FeatureName(%d) = %q, want %q", i, FeatureName(i), w)
		}
	}
}

// TestDatasetSplit checks the reference builder's partition.
func TestDatasetSplit(t *testing.T) {
	d := Dataset{
		NewSample(0, 10, 0, 0, 0, true),
		NewSample(0, 20, 0, 0, 0, false),
		NewSample(0, 30, 0, 0, 0, true),
	}
	l, r := splitRef(d, FeatRT, 20)
	if len(l) != 2 || len(r) != 1 {
		t.Errorf("split sizes = %d, %d", len(l), len(r))
	}
}

// Property: a fully grown tree (no depth bound, MinLeaf 1) reaches 100%
// accuracy on its own training data whenever no two samples share features
// with different labels.
func TestTrainingSetMemorizationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Dataset
		seen := map[[NumFeatures]uint64]bool{}
		for i := 0; i < 120; i++ {
			s := NewSample(uint64(rng.Intn(8)), uint64(rng.Intn(1000)),
				uint64(rng.Intn(200)), uint64(rng.Intn(200)), uint64(rng.Intn(200)),
				rng.Intn(2) == 0)
			if seen[s.Features] {
				continue
			}
			seen[s.Features] = true
			d = append(d, s)
		}
		tree, err := Train(d, Config{MinLeaf: 1})
		if err != nil {
			return false
		}
		return Evaluate(tree, d).Accuracy() == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: classification is total — every feature vector reaches a leaf
// in at most Depth() comparisons.
func TestClassificationTotalProperty(t *testing.T) {
	train := synthetic(1000, 200, 11)
	tree, err := Train(train, DefaultRandomTree(3))
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d, e uint64) bool {
		_, cmp := tree.Classify([NumFeatures]uint64{a % 70, b, c, d, e})
		return cmp <= tree.Depth()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkClassify(b *testing.B) {
	train := synthetic(5000, 200, 12)
	tree, err := Train(train, DefaultRandomTree(5))
	if err != nil {
		b.Fatal(err)
	}
	feats := train[17].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Classify(feats)
	}
}

func BenchmarkTrainRandomTree(b *testing.B) {
	train := synthetic(2000, 200, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(train, DefaultRandomTree(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNaiveBayesLearnsSeparableData(t *testing.T) {
	train := synthetic(2000, 2000, 21) // huge delta: even NB separates it
	nb, err := TrainNaiveBayes(train)
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(nb, synthetic(500, 2000, 22))
	if c.Accuracy() < 0.9 {
		t.Errorf("naive Bayes accuracy %f on hugely separated data: %v", c.Accuracy(), c)
	}
}

func TestNaiveBayesRequiresBothClasses(t *testing.T) {
	var d Dataset
	for i := 0; i < 20; i++ {
		d = append(d, NewSample(0, uint64(i), 0, 0, 0, true))
	}
	if _, err := TrainNaiveBayes(d); err == nil {
		t.Fatal("single-class training should fail")
	}
	if _, err := TrainNaiveBayes(nil); err == nil {
		t.Fatal("empty training should fail")
	}
}

// The paper's argument: without a matching distribution assumption the
// generative model underperforms the discriminative tree. Counter
// signatures are joint, not marginal: whether an RT value is suspicious
// depends on which handler ran (VMER). Model that as XOR structure over
// (RT, BR) — per-class marginals are identical, so naive Bayes collapses
// to the prior, while the tree separates it with two splits.
func TestTreeBeatsNaiveBayesOnNonGaussianData(t *testing.T) {
	gen := func(n int, seed int64) Dataset {
		rng := rand.New(rand.NewSource(seed))
		var d Dataset
		for i := 0; i < n; i++ {
			rtHigh := rng.Intn(2) == 0
			brHigh := rng.Intn(2) == 0
			rt := uint64(1000 + rng.Intn(100))
			if rtHigh {
				rt = uint64(9000 + rng.Intn(100))
			}
			br := uint64(100 + rng.Intn(20))
			if brHigh {
				br = uint64(900 + rng.Intn(20))
			}
			correct := rtHigh == brHigh
			d = append(d, NewSample(uint64(rng.Intn(8)), rt, br,
				uint64(rng.Intn(50)), uint64(rng.Intn(50)), correct))
		}
		return d
	}
	train, test := gen(3000, 31), gen(1000, 32)
	tree, err := Train(train, DefaultRandomTree(31))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := TrainNaiveBayes(train)
	if err != nil {
		t.Fatal(err)
	}
	treeAcc := Evaluate(tree, test).Accuracy()
	nbAcc := Evaluate(nb, test).Accuracy()
	if treeAcc <= nbAcc {
		t.Errorf("tree %.3f should beat naive Bayes %.3f on bimodal data", treeAcc, nbAcc)
	}
	if treeAcc < 0.95 {
		t.Errorf("tree accuracy %.3f too low", treeAcc)
	}
}

func BenchmarkNaiveBayesClassify(b *testing.B) {
	train := synthetic(2000, 300, 41)
	nb, err := TrainNaiveBayes(train)
	if err != nil {
		b.Fatal(err)
	}
	feats := train[3].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Classify(feats)
	}
}

// The reference builder: tree induction as it was before presorting, which
// sorts every candidate feature at every node and copies each split into
// two new datasets. Train must grow exactly the tree it grows.

// trainRef is Train on the reference builder.
func trainRef(d Dataset, cfg Config) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Tree{Root: growRef(d, cfg, rng, 0), Cfg: cfg}
}

// bestSplitOnRef finds the best threshold for one feature by scanning
// class boundaries of the value-sorted samples.
func bestSplitOnRef(d Dataset, f int, parentEntropy float64) (split, bool) {
	type vl struct {
		v       uint64
		correct bool
	}
	vals := make([]vl, len(d))
	for i, s := range d {
		vals[i] = vl{s.Features[f], s.Correct}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })

	totalC, totalI := d.Counts()
	n := float64(len(d))
	best := split{feature: f, gain: -1}
	leftC, leftI := 0, 0
	for i := 0; i < len(vals)-1; i++ {
		if vals[i].correct {
			leftC++
		} else {
			leftI++
		}
		if vals[i].v == vals[i+1].v {
			continue
		}
		rightC, rightI := totalC-leftC, totalI-leftI
		nl := float64(leftC + leftI)
		nr := float64(rightC + rightI)
		gain := parentEntropy - (nl/n*entropy(leftC, leftI) + nr/n*entropy(rightC, rightI))
		if gain > best.gain {
			best.gain = gain
			best.threshold = vals[i].v
		}
	}
	return best, best.gain >= 0
}

// growRef recursively builds nodes.
func growRef(d Dataset, cfg Config, rng *rand.Rand, depth int) *Node {
	c, i := d.Counts()
	if c == 0 || i == 0 || len(d) < 2*cfg.MinLeaf ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return &Node{Leaf: true, Correct: d.Majority()}
	}
	parentEntropy := entropy(c, i)

	features := candidateFeatures(cfg, rng)
	best := split{gain: -1}
	found := false
	for _, f := range features {
		s, ok := bestSplitOnRef(d, f, parentEntropy)
		if ok && s.gain > best.gain {
			best = s
			found = true
		}
	}
	if !found || best.gain <= 0 {
		if cfg.RandomFeatures > 0 {
			for f := 0; f < NumFeatures; f++ {
				s, ok := bestSplitOnRef(d, f, parentEntropy)
				if ok && s.gain > best.gain {
					best = s
					found = true
				}
			}
		}
		if !found || best.gain <= 0 {
			return &Node{Leaf: true, Correct: d.Majority()}
		}
	}
	left, right := splitRef(d, best.feature, best.threshold)
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return &Node{Leaf: true, Correct: d.Majority()}
	}
	return &Node{
		Feature:   best.feature,
		Threshold: best.threshold,
		Left:      growRef(left, cfg, rng, depth+1),
		Right:     growRef(right, cfg, rng, depth+1),
	}
}

// splitRef partitions the dataset by feature f at threshold t: left
// receives samples with feature ≤ t.
func splitRef(d Dataset, f int, t uint64) (left, right Dataset) {
	for _, s := range d {
		if s.Features[f] <= t {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	return
}

// tiedDataset draws n samples whose feature values come from an alphabet
// of `alphabet` multiples of step per feature (so values tie heavily),
// labelled correct with probability 1/2, or all correct when oneClass is
// set.
func tiedDataset(rng *rand.Rand, n, alphabet int, step uint64, oneClass bool) Dataset {
	d := make(Dataset, n)
	for k := range d {
		for f := range d[k].Features {
			d[k].Features[f] = uint64(rng.Intn(alphabet)) * step
		}
		d[k].Correct = oneClass || rng.Intn(2) == 0
	}
	return d
}

// FuzzTrainMatchesReference checks the presorted builder against the
// reference builder on tie-heavy random datasets, over decision and random
// configurations with every MinLeaf and MaxDepth the checks name.
func FuzzTrainMatchesReference(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(int64(i), uint16(20+i*37), uint8(i), uint8(i*21), uint8(i*7), int64(i*101))
	}
	f.Add(int64(99), uint16(1), uint8(0), uint8(0), uint8(0), int64(0))
	f.Add(int64(5), uint16(2000), uint8(7), uint8(1), uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, dataSeed int64, n uint16, alphabet, shape, cfgSel uint8, treeSeed int64) {
		size := 1 + int(n)%2500
		// shape picks the label mix and the value magnitude, so the
		// presort's radix passes see keys differing in any byte.
		step := uint64(37) << (shape / 4 % 57)
		d := tiedDataset(rand.New(rand.NewSource(dataSeed)), size, 1+int(alphabet)%8, step, shape%4 == 0)
		cfg := Config{
			MinLeaf:  []int{1, 2, 5}[cfgSel%3],
			MaxDepth: []int{0, 2, 24}[(cfgSel/3)%3],
			Seed:     treeSeed,
		}
		if cfgSel/9%2 == 1 {
			cfg.RandomFeatures = PaperRandomFeatures
		}
		got, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := trainRef(d, cfg); got.String() != want.String() {
			t.Fatalf("cfg %+v, %d samples: presorted tree\n%s\nreference tree\n%s", cfg, size, got, want)
		}
	})
}
