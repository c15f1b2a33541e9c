package ml

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Node is one decision-tree node. Internal nodes route samples by an
// integer threshold comparison (feature ≤ Threshold → Left); leaves carry
// the class.
type Node struct {
	Leaf    bool
	Correct bool // leaf class

	Feature   int
	Threshold uint64
	Left      *Node
	Right     *Node
}

// Tree is a trained classifier.
type Tree struct {
	Root *Node
	// Cfg is the configuration the tree was trained with.
	Cfg Config
}

// Config controls tree induction.
type Config struct {
	// MaxDepth bounds tree depth (0 means unbounded).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (≥1).
	MinLeaf int
	// RandomFeatures, when >0, makes this a random tree: each split
	// considers only that many randomly drawn features. The paper uses
	// ⌊log₂(#features)⌋+1 = 3.
	RandomFeatures int
	// Seed drives the random-tree feature draws.
	Seed int64
}

// PaperRandomFeatures is ⌊log₂(NumFeatures)⌋+1, the WEKA RandomTree
// default the paper cites.
const PaperRandomFeatures = 3

// DefaultDecisionTree returns the plain decision-tree configuration.
func DefaultDecisionTree() Config { return Config{MaxDepth: 24, MinLeaf: 2} }

// DefaultRandomTree returns the paper's random-tree configuration.
func DefaultRandomTree(seed int64) Config {
	return Config{MaxDepth: 24, MinLeaf: 1, RandomFeatures: PaperRandomFeatures, Seed: seed}
}

// entropy computes the binary entropy of a (correct, incorrect) count pair.
func entropy(c, i int) float64 {
	n := c + i
	if n == 0 || c == 0 || i == 0 {
		return 0
	}
	pc := float64(c) / float64(n)
	pi := float64(i) / float64(n)
	return -pc*math.Log2(pc) - pi*math.Log2(pi)
}

// split describes one candidate split and its information gain D
// (paper Section III-B: D(T,Tl,Tr) = H(T) − (Pl·H(Tl) + Pr·H(Tr))), with
// the class counts of the samples it routes left.
type split struct {
	feature      int
	threshold    uint64
	gain         float64
	leftC, leftI int
}

// builder grows a tree on presorted columns: cols[f] holds sample indices
// in ascending order of feature f, and every node owns the same index
// range [lo, hi) of all five columns. A node scans its candidate columns
// in order instead of sorting them, and a split stably partitions each
// column's range in place, so both children's ranges stay sorted.
type builder struct {
	cfg     Config
	rng     *rand.Rand
	vals    [NumFeatures][]uint64 // vals[f][i]: feature f of sample i
	correct []bool                // correct[i]: sample i's label
	cols    [NumFeatures][]int32
	scratch []int32 // right-hand side of one column's partition
}

// Train induces a tree on the dataset with the given configuration.
func Train(d Dataset, cfg Config) (*Tree, error) {
	if len(d) == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	b := newBuilder(d, cfg)
	c, i := d.Counts()
	root := b.grow(0, len(d), c, i, 0)
	return &Tree{Root: root, Cfg: cfg}, nil
}

// newBuilder sorts the dataset's sample indices once per feature.
func newBuilder(d Dataset, cfg Config) *builder {
	n := len(d)
	b := &builder{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		correct: make([]bool, n),
		scratch: make([]int32, n),
	}
	for k, s := range d {
		b.correct[k] = s.Correct
	}
	for f := range b.cols {
		v := make([]uint64, n)
		col := make([]int32, n)
		for k, s := range d {
			v[k] = s.Features[f]
			col[k] = int32(k)
		}
		sortByValue(col, b.scratch, v)
		b.vals[f], b.cols[f] = v, col
	}
	return b
}

// sortByValue orders the sample indices in col by ascending v[index]
// with a stable LSD radix sort, one pass per key byte that is not the same
// in every key; tmp is scratch of col's length. Tie order is immaterial to
// the tree: a threshold only ever falls between distinct values, where the
// counts to its left do not depend on it.
func sortByValue(col, tmp []int32, v []uint64) {
	or, and := uint64(0), ^uint64(0)
	for _, x := range v {
		or |= x
		and &= x
	}
	src, dst := col, tmp
	for shift := 0; shift < 64; shift += 8 {
		if byte((or^and)>>shift) == 0 {
			continue // every key has this byte
		}
		var next [256]int32
		for _, k := range src {
			next[byte(v[k]>>shift)]++
		}
		sum := int32(0)
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(v[k] >> shift)
			dst[next[d]] = k
			next[d]++
		}
		src, dst = dst, src
	}
	copy(col, src) // a no-op unless the pass count was odd
}

// grow recursively builds the node over column range [lo, hi), which
// holds c correct and i incorrect samples.
func (b *builder) grow(lo, hi, c, i, depth int) *Node {
	cfg := b.cfg
	if c == 0 || i == 0 || hi-lo < 2*cfg.MinLeaf ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return leafNode(c, i)
	}
	parentEntropy := entropy(c, i)

	features := candidateFeatures(cfg, b.rng)
	best := split{gain: -1}
	found := false
	for _, f := range features {
		s, ok := b.bestSplitOn(f, lo, hi, c, i, parentEntropy)
		if ok && s.gain > best.gain {
			best = s
			found = true
		}
	}
	if !found || best.gain <= 0 {
		// Random trees retry with the full feature set before giving up,
		// like WEKA falling back when the drawn subset is uninformative.
		if cfg.RandomFeatures > 0 {
			for f := 0; f < NumFeatures; f++ {
				s, ok := b.bestSplitOn(f, lo, hi, c, i, parentEntropy)
				if ok && s.gain > best.gain {
					best = s
					found = true
				}
			}
		}
		if !found || best.gain <= 0 {
			return leafNode(c, i)
		}
	}
	nl := best.leftC + best.leftI
	if nl < cfg.MinLeaf || hi-lo-nl < cfg.MinLeaf {
		return leafNode(c, i)
	}
	mid := lo + nl
	b.partition(lo, hi, best.feature, best.threshold)
	return &Node{
		Feature:   best.feature,
		Threshold: best.threshold,
		Left:      b.grow(lo, mid, best.leftC, best.leftI, depth+1),
		Right:     b.grow(mid, hi, c-best.leftC, i-best.leftI, depth+1),
	}
}

// leafNode is a leaf of the majority class of c correct and i incorrect
// samples.
func leafNode(c, i int) *Node { return &Node{Leaf: true, Correct: majority(c, i)} }

// bestSplitOn finds the best threshold for feature f over the node's
// column range by scanning the class boundaries of its sorted order. Ties
// in gain keep the lowest threshold.
func (b *builder) bestSplitOn(f, lo, hi, totalC, totalI int, parentEntropy float64) (split, bool) {
	col := b.cols[f][lo:hi]
	v := b.vals[f]
	n := float64(len(col))
	best := split{feature: f, gain: -1}
	leftC, leftI := 0, 0
	for k := 0; k < len(col)-1; k++ {
		if b.correct[col[k]] {
			leftC++
		} else {
			leftI++
		}
		x := v[col[k]]
		if x == v[col[k+1]] {
			continue // threshold must separate distinct values
		}
		rightC, rightI := totalC-leftC, totalI-leftI
		nl := float64(leftC + leftI)
		nr := float64(rightC + rightI)
		gain := parentEntropy - (nl/n*entropy(leftC, leftI) + nr/n*entropy(rightC, rightI))
		if gain > best.gain {
			best.gain = gain
			best.threshold = x
			best.leftC, best.leftI = leftC, leftI
		}
	}
	return best, best.gain >= 0
}

// partition stably reorders every column's range [lo, hi) so the samples
// with feature f ≤ t come first, keeping each side in its sorted order.
// Column f is already in that order.
func (b *builder) partition(lo, hi, f int, t uint64) {
	v := b.vals[f]
	for g := range b.cols {
		if g == f {
			continue
		}
		col := b.cols[g][lo:hi]
		l, r := 0, 0
		for _, k := range col {
			if v[k] <= t {
				col[l] = k
				l++
			} else {
				b.scratch[r] = k
				r++
			}
		}
		copy(col[l:], b.scratch[:r])
	}
}

// candidateFeatures returns the features considered at one node: all for a
// decision tree, a random subset for a random tree.
func candidateFeatures(cfg Config, rng *rand.Rand) []int {
	if cfg.RandomFeatures <= 0 || cfg.RandomFeatures >= NumFeatures {
		fs := make([]int, NumFeatures)
		for i := range fs {
			fs[i] = i
		}
		return fs
	}
	perm := rng.Perm(NumFeatures)
	return perm[:cfg.RandomFeatures]
}

// Classify routes a feature vector to a class. It also reports the number
// of comparisons performed — the integer work the in-hypervisor
// implementation pays at VM entry.
func (t *Tree) Classify(features [NumFeatures]uint64) (correct bool, comparisons int) {
	n := t.Root
	for !n.Leaf {
		comparisons++
		if features[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Correct, comparisons
}

// ClassifySample classifies a sample's features.
func (t *Tree) ClassifySample(s Sample) bool {
	c, _ := t.Classify(s.Features)
	return c
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// Depth returns the maximum depth (root = 0).
func (t *Tree) Depth() int { return nodeDepth(t.Root) }

func nodeDepth(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	l, r := nodeDepth(n.Left), nodeDepth(n.Right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// String renders the tree as indented rules (paper Fig. 6 style).
func (t *Tree) String() string {
	var b strings.Builder
	renderNode(&b, t.Root, 0)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.Leaf {
		class := "Incorrect"
		if n.Correct {
			class = "Correct"
		}
		fmt.Fprintf(b, "%s→ %s\n", indent, class)
		return
	}
	fmt.Fprintf(b, "%sif %s <= %d:\n", indent, FeatureName(n.Feature), n.Threshold)
	renderNode(b, n.Left, depth+1)
	fmt.Fprintf(b, "%selse:\n", indent)
	renderNode(b, n.Right, depth+1)
}
