package mem

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// epochLayout maps regions that cover every page-protection corner: a
// 512-byte-aligned RW region (page fast path), one with a short tail page,
// one whose start is not 512-byte aligned (never fast-pathed), and a
// read-only region only the Poke backdoor can write.
func epochLayout() *Memory {
	m := New()
	m.MustMap("a", 0x1000, 2048, PermRW)
	m.MustMap("tail", 0x3000, 1000, PermRW)
	m.MustMap("skew", 0x4008, 1536, PermRW)
	m.MustMap("ro", 0x8000, 512, PermRead)
	return m
}

// epochHarness drives a Memory through a byte-coded op stream and checks
// it against the deprecated flat Snapshot/Restore, an implementation that
// shares no page machinery with the undo epoch or the checkpoints:
//
//   - model is the flat image every write should produce; after every op
//     the memory must equal it, and loads must read from it;
//   - Rollback must reproduce the flat snapshot taken at Mark, and
//     RestoreCheckpoint the one taken at Checkpoint, also for a checkpoint
//     another memory of the same layout took (a cross-lineage restore,
//     which shares chunks with m's own checkpoints when that memory
//     restored one of them first);
//   - no checkpoint may change after it was taken: restored into a second
//     memory, each must still equal its flat snapshot and fold to its
//     first Fold;
//   - the incremental FoldFrom against every checkpoint must equal the
//     from-scratch fold. Against the checkpoint m derives from, FoldFrom
//     rehashes only the dirty journal, so this also catches a journal
//     entry recorded twice;
//   - the shared zero page every fresh region starts from must stay all
//     zero and on no free list, which catches any write path that
//     bypasses cowPage.
//
// A FlipTLBTag that hits an armed entry may send later accesses to the
// wrong page, as the modelled soft error does, so the model is not
// checked while such poison may be live; it is resynchronized at the next
// op that drops every D-TLB entry.
type epochHarness struct {
	t     testing.TB
	m     *Memory
	check *Memory // same layout; checkpoints are verified by restoring here
	twin  *Memory // same layout; takes the cross-lineage checkpoints

	model    map[string][]uint64
	poisoned bool

	cps     []*Checkpoint
	cpFlat  []map[string][]uint64
	cpFolds []uint64
	// mark is the flat snapshot taken at the open epoch's Mark (nil when no
	// epoch is open).
	mark map[string][]uint64
	in   []byte
}

func newEpochHarness(t testing.TB, in []byte) *epochHarness {
	m := epochLayout()
	return &epochHarness{t: t, m: m, check: epochLayout(), twin: epochLayout(),
		model: m.Snapshot(), in: in}
}

// next consumes one input byte (zero once the input is exhausted).
func (h *epochHarness) next() byte {
	if len(h.in) == 0 {
		return 0
	}
	b := h.in[0]
	h.in = h.in[1:]
	return b
}

// addr draws a word address inside some region, favouring the fast-pathed
// one, or an address that is unaligned or just past a region's end.
func (h *epochHarness) addr() uint64 {
	regions := h.m.Regions()
	r := regions[0]
	if k := int(h.next()) % 8; k < len(regions) {
		r = regions[k]
	}
	off := uint64(h.next())<<8 | uint64(h.next())
	switch h.next() % 16 {
	case 0:
		return r.End()
	case 1:
		return r.Start + 4
	}
	return r.Start + off%(r.Size/8)*8
}

func (h *epochHarness) val() uint64 {
	return uint64(h.next())*0x9e3779b97f4a7c15 ^ uint64(h.next())
}

// modelWord returns the model's word slice and index for addr.
func (h *epochHarness) modelWord(addr uint64) ([]uint64, uint64) {
	r := h.m.Find(addr)
	return h.model[r.Name], (addr - r.Start) / 8
}

func (h *epochHarness) run() {
	for len(h.in) > 0 {
		h.step(h.next())
		h.verify()
	}
}

func (h *epochHarness) step(op byte) {
	t, m := h.t, h.m
	switch op % 16 {
	case 0, 1, 2, 3:
		addr, v := h.addr(), h.val()
		if m.Store(addr, v) == FaultNone {
			words, i := h.modelWord(addr)
			words[i] = v
		}
	case 4:
		addr, v := h.addr(), h.val()
		if m.Poke(addr, v) == nil {
			words, i := h.modelWord(addr)
			words[i] = v
		}
	case 5, 6:
		// Loads arm page fast paths for later stores and FlipTLBTag.
		addr := h.addr()
		if v, f := m.Load(addr); f == FaultNone && !h.poisoned {
			if words, i := h.modelWord(addr); v != words[i] {
				t.Fatalf("Load(%#x) = %#x, model holds %#x", addr, v, words[i])
			}
		}
	case 7:
		addr := h.addr()
		vals := make([]uint64, 1+int(h.next())%150)
		for i := range vals {
			vals[i] = h.val() + uint64(i)
		}
		if m.PokeRange(addr, vals) == nil {
			words, i := h.modelWord(addr)
			copy(words[i:], vals)
		}
	case 8:
		r := m.Regions()[int(h.next())%len(m.Regions())]
		r.Zero()
		clear(h.model[r.Name])
	case 9:
		if m.FlipTLBTag(int(h.next()), h.next()) {
			h.poisoned = true
		}
	case 10:
		flat := m.Snapshot()
		h.hold(m.Checkpoint(), flat)
		h.mark = nil
		h.resync(flat)
	case 11:
		if len(h.cps) == 0 {
			return
		}
		k := int(h.next()) % len(h.cps)
		if err := m.RestoreCheckpoint(h.cps[k]); err != nil {
			t.Fatal(err)
		}
		h.mark = nil
		if !reflect.DeepEqual(m.Snapshot(), h.cpFlat[k]) {
			t.Fatalf("RestoreCheckpoint(%d) differs from the flat snapshot taken at Checkpoint", k)
		}
		h.resync(h.cpFlat[k])
	case 12, 13:
		h.mark = m.Snapshot()
		m.Mark()
		h.resync(h.mark)
	case 15:
		// Cross-lineage restore: the twin, continuing its own lineage or
		// first restoring one of the held checkpoints, pokes a word and
		// checkpoints; m restores that checkpoint.
		tw := h.twin
		if b := h.next(); b%2 == 0 && len(h.cps) > 0 {
			if err := tw.RestoreCheckpoint(h.cps[int(h.next())%len(h.cps)]); err != nil {
				t.Fatal(err)
			}
		}
		tw.Poke(h.addr(), h.val())
		flat := tw.Snapshot()
		cp := tw.Checkpoint()
		h.hold(cp, flat)
		if err := m.RestoreCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		h.mark = nil
		if !reflect.DeepEqual(m.Snapshot(), flat) {
			t.Fatal("cross-lineage RestoreCheckpoint differs from the flat snapshot taken at Checkpoint")
		}
		h.resync(flat)
	default:
		err := m.Rollback()
		if h.mark == nil {
			if !errors.Is(err, ErrNoEpoch) {
				t.Fatalf("Rollback with no open epoch: err = %v, want ErrNoEpoch", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Snapshot(), h.mark) {
			t.Fatal("Rollback differs from the flat snapshot taken at Mark")
		}
		h.resync(h.mark)
	}
}

// hold keeps cp, with its flat snapshot and first fold, among the (at most
// four) checkpoints verify re-checks after every op.
func (h *epochHarness) hold(cp *Checkpoint, flat map[string][]uint64) {
	h.cps = append(h.cps, cp)
	h.cpFlat = append(h.cpFlat, flat)
	h.cpFolds = append(h.cpFolds, cp.Fold())
	if len(h.cps) > 4 {
		h.cps, h.cpFlat, h.cpFolds = h.cps[1:], h.cpFlat[1:], h.cpFolds[1:]
	}
}

// resync restarts the model from flat, the image left by an op that
// dropped every D-TLB entry and with it any poison.
func (h *epochHarness) resync(flat map[string][]uint64) {
	h.model = make(map[string][]uint64, len(flat))
	for name, words := range flat {
		h.model[name] = append([]uint64(nil), words...)
	}
	h.poisoned = false
}

func (h *epochHarness) verify() {
	t := h.t
	checkZeroPage(t, h.m, h.check, h.twin)
	if !h.poisoned && !reflect.DeepEqual(h.m.Snapshot(), h.model) {
		t.Fatal("memory differs from the model of every write so far")
	}
	full := h.m.FoldFrom(nil)
	for i, cp := range h.cps {
		if got := h.m.FoldFrom(cp); got != full {
			t.Fatalf("FoldFrom(checkpoint %d) = %x, from-scratch fold %x", i, got, full)
		}
		if err := h.check.RestoreCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h.check.Snapshot(), h.cpFlat[i]) {
			t.Fatalf("checkpoint %d changed after it was taken", i)
		}
		if got := h.check.FoldFrom(nil); got != h.cpFolds[i] || cp.Fold() != h.cpFolds[i] {
			t.Fatalf("checkpoint %d folds to %x (cached %x), first Fold was %x",
				i, got, cp.Fold(), h.cpFolds[i])
		}
	}
}

// TestUndoEpochDifferential runs seeded random op streams through the
// harness. Stores, loads, Mark and Rollback are drawn more often than the
// other ops, so that stores through armed page fast paths, re-marking an
// open epoch, rolling back twice, and writing after a rollback all occur
// often.
func TestUndoEpochDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		in := make([]byte, 600)
		rng.Read(in)
		newEpochHarness(t, in).run()
	}
}

// FuzzUndoEpoch is TestUndoEpochDifferential over fuzzer-chosen op streams.
// The seeds store through a page fast path across a Mark before rolling
// back, roll back twice, restore a checkpoint from inside an epoch, and
// restore cross-lineage checkpoints into a memory that derives from a
// checkpoint, one sharing chunks with its own and one not.
func FuzzUndoEpoch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 1, 1, 12, 0, 0, 0, 0, 2, 5, 5, 14})
	f.Add([]byte{10, 12, 0, 0, 0, 9, 2, 3, 3, 14, 0, 0, 0, 9, 2, 4, 4, 14})
	f.Add([]byte{5, 0, 0, 0, 2, 10, 12, 7, 0, 0, 0, 2, 40, 1, 1, 11, 0, 14, 13, 0, 0, 0, 2, 6, 6, 14})
	f.Add([]byte{10, 0, 0, 0, 0, 2, 1, 1, 15, 0, 0, 0, 0, 1, 2, 9, 9, 0, 0, 0, 3, 2, 4, 4,
		15, 1, 2, 0, 40, 2, 7, 7, 11, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		newEpochHarness(t, in).run()
	})
}
