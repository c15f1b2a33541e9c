package wire

import (
	"fmt"

	"xentry/internal/ml"
)

// Model codec: the coordinator trains a fleet campaign's transition model
// once and ships it in the Welcome, so every worker runs the tree the
// coordinator grew instead of re-growing its own (a float rounding
// difference between hosts would otherwise grow a different tree).
//
// Layout: the tree's Config (MaxDepth, MinLeaf, RandomFeatures, Seed as
// zigzag varints), a uvarint node count, then the nodes in preorder. A
// node is one tag byte — modelLeafIncorrect, modelLeafCorrect or
// modelSplit — and a split carries its feature and threshold as uvarints,
// followed by its left and right subtrees. A nil tree encodes as zero
// bytes.

const (
	modelLeafIncorrect = 0
	modelLeafCorrect   = 1
	modelSplit         = 2
)

// maxModelDepth bounds a decoded tree's depth. Trained trees stop at
// ml.Config.MaxDepth (24 by default); the bound keeps a hostile encoding
// from driving the recursive decoder arbitrarily deep.
const maxModelDepth = 256

// AppendModel appends the encoding of t to dst; a nil t appends nothing.
func AppendModel(dst []byte, t *ml.Tree) []byte {
	if t == nil {
		return dst
	}
	dst = appendInt(dst, int64(t.Cfg.MaxDepth))
	dst = appendInt(dst, int64(t.Cfg.MinLeaf))
	dst = appendInt(dst, int64(t.Cfg.RandomFeatures))
	dst = appendInt(dst, t.Cfg.Seed)
	dst = appendUvarint(dst, uint64(t.Size()))
	return appendNode(dst, t.Root)
}

func appendNode(dst []byte, n *ml.Node) []byte {
	if n.Leaf {
		if n.Correct {
			return append(dst, modelLeafCorrect)
		}
		return append(dst, modelLeafIncorrect)
	}
	dst = append(dst, modelSplit)
	dst = appendUvarint(dst, uint64(n.Feature))
	dst = appendUvarint(dst, n.Threshold)
	dst = appendNode(dst, n.Left)
	return appendNode(dst, n.Right)
}

// DecodeModel decodes an AppendModel encoding; zero bytes decode to a nil
// tree. It rejects a node count larger than the bytes left (every node
// costs at least its tag byte), a count the preorder does not fill
// exactly, a depth past maxModelDepth, a feature outside ml.NumFeatures,
// an unknown tag and trailing bytes. The nodes share one allocation, laid
// out in preorder.
func DecodeModel(b []byte) (*ml.Tree, error) {
	if len(b) == 0 {
		return nil, nil
	}
	bad := func(err error) (*ml.Tree, error) {
		return nil, fmt.Errorf("wire: decoding model: %w", err)
	}
	var cfg [4]int64
	var err error
	for i := range cfg {
		if cfg[i], b, err = consumeInt(b); err != nil {
			return bad(err)
		}
	}
	count, b, err := consumeUvarint(b)
	if err != nil {
		return bad(err)
	}
	if count == 0 || count > uint64(len(b)) {
		return bad(fmt.Errorf("node count %d for %d bytes", count, len(b)))
	}
	d := modelDecoder{nodes: make([]ml.Node, count)}
	root, rest, err := d.node(b, 0)
	if err != nil {
		return bad(err)
	}
	if d.used != len(d.nodes) {
		return bad(fmt.Errorf("%d nodes decoded, %d declared", d.used, len(d.nodes)))
	}
	if len(rest) != 0 {
		return bad(fmt.Errorf("%d trailing bytes", len(rest)))
	}
	return &ml.Tree{Root: root, Cfg: ml.Config{
		MaxDepth: int(cfg[0]), MinLeaf: int(cfg[1]), RandomFeatures: int(cfg[2]), Seed: cfg[3],
	}}, nil
}

// modelDecoder hands out the preallocated nodes in preorder.
type modelDecoder struct {
	nodes []ml.Node
	used  int
}

func (d *modelDecoder) node(b []byte, depth int) (*ml.Node, []byte, error) {
	if depth > maxModelDepth {
		return nil, nil, fmt.Errorf("tree deeper than %d", maxModelDepth)
	}
	if d.used == len(d.nodes) {
		return nil, nil, fmt.Errorf("more than the %d declared nodes", len(d.nodes))
	}
	tag, b, err := consumeByte(b)
	if err != nil {
		return nil, nil, err
	}
	n := &d.nodes[d.used]
	d.used++
	switch tag {
	case modelLeafIncorrect, modelLeafCorrect:
		n.Leaf, n.Correct = true, tag == modelLeafCorrect
		return n, b, nil
	case modelSplit:
	default:
		return nil, nil, fmt.Errorf("unknown node tag %d", tag)
	}
	feature, b, err := consumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if feature >= ml.NumFeatures {
		return nil, nil, fmt.Errorf("feature %d out of range", feature)
	}
	n.Feature = int(feature)
	if n.Threshold, b, err = consumeUvarint(b); err != nil {
		return nil, nil, err
	}
	if n.Left, b, err = d.node(b, depth+1); err != nil {
		return nil, nil, err
	}
	if n.Right, b, err = d.node(b, depth+1); err != nil {
		return nil, nil, err
	}
	return n, b, nil
}
