package wire_test

import (
	"strings"
	"testing"

	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/wire"
)

// TestModelRoundTrip: both trees QuickScale training grows, the decision
// tree and the random tree, decode to the same rules and Config and
// classify every held-out sample exactly as the originals do, with the
// same number of comparisons. A nil model is zero bytes both ways.
func TestModelRoundTrip(t *testing.T) {
	sc := experiments.QuickScale()
	trained, err := experiments.Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	_, testCfg := experiments.DatasetConfigs(sc)
	testSet, err := inject.CollectDataset(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*ml.Tree{"decision": trained.DecisionTree, "random": trained.RandomTree} {
		blob := wire.AppendModel(nil, tree)
		got, err := wire.DecodeModel(blob)
		if err != nil {
			t.Fatalf("%s tree (%d nodes): %v", name, tree.Size(), err)
		}
		if got.String() != tree.String() || got.Cfg != tree.Cfg {
			t.Fatalf("%s tree decodes to different rules or config %+v, want %+v", name, got.Cfg, tree.Cfg)
		}
		for i, s := range testSet {
			gc, gn := got.Classify(s.Features)
			wc, wn := tree.Classify(s.Features)
			if gc != wc || gn != wn {
				t.Fatalf("%s tree, sample %d: decoded tree says (%v, %d comparisons), original (%v, %d)", name, i, gc, gn, wc, wn)
			}
		}
		t.Logf("%s tree: %d nodes, depth %d, %d bytes", name, tree.Size(), tree.Depth(), len(blob))
	}
	if blob := wire.AppendModel(nil, nil); len(blob) != 0 {
		t.Errorf("nil model encodes to %d bytes", len(blob))
	}
	if tree, err := wire.DecodeModel(nil); tree != nil || err != nil {
		t.Errorf("empty model decodes to (%v, %v), want (nil, nil)", tree, err)
	}
}

// testTree is a small hand-built tree: a split on each side of the root.
func testTree() *ml.Tree {
	leaf := func(correct bool) *ml.Node { return &ml.Node{Leaf: true, Correct: correct} }
	return &ml.Tree{Cfg: ml.DefaultRandomTree(7), Root: &ml.Node{
		Feature: 2, Threshold: 900,
		Left:  &ml.Node{Feature: 0, Threshold: 3, Left: leaf(true), Right: leaf(false)},
		Right: &ml.Node{Feature: 4, Threshold: 1 << 40, Left: leaf(false), Right: leaf(true)},
	}}
}

// TestDecodeModelRejectsHostile: every bound the decoder keeps is an
// error, never a panic or a partial tree.
func TestDecodeModelRejectsHostile(t *testing.T) {
	good := wire.AppendModel(nil, testTree())
	// The Config is four one-byte varints and the count one byte, so the
	// preorder starts at byte 5.
	const nodes = 5
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	deep := []byte{0, 0, 0, 0}
	deep = append(deep, 0xad, 0x04) // 557 nodes: 278 splits, 279 leaves
	for i := 0; i < 278; i++ {
		deep = append(deep, 2, 0, 0) // a chain of left-leaning splits
	}
	for i := 0; i < 279; i++ {
		deep = append(deep, 0)
	}
	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"truncated", good[:len(good)-1], "truncated"},
		{"trailing byte", append(append([]byte(nil), good...), 0), "trailing"},
		{"unknown tag", mutate(func(b []byte) []byte { b[nodes] = 3; return b }), "unknown node tag"},
		{"feature out of range", mutate(func(b []byte) []byte { b[nodes+1] = ml.NumFeatures; return b }), "out of range"},
		{"zero nodes", mutate(func(b []byte) []byte { b[nodes-1] = 0; return b }), "node count"},
		{"more nodes than bytes", mutate(func(b []byte) []byte { b[nodes-1] = 0x7f; return b }), "node count"},
		{"fewer nodes than declared", mutate(func(b []byte) []byte { b[nodes-1]++; return append(b, 0) }), "declared"},
		{"more nodes than declared", mutate(func(b []byte) []byte { b[nodes-1]--; return b }), "declared"},
		{"too deep", deep, "deeper"},
	} {
		tree, err := wire.DecodeModel(tc.blob)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeModel = (%v, %v), want an error containing %q", tc.name, tree != nil, err, tc.want)
		}
	}
}
