package mem

import (
	"sync"
	"testing"
)

func hashTestMemory(t *testing.T) *Memory {
	t.Helper()
	m := New()
	m.MustMap("text", 0x1000, 4096, PermRead)
	m.MustMap("data", 0x10000, 2048, PermRW)
	for i := uint64(0); i < 2048/8; i++ {
		if err := m.Poke(0x10000+i*8, i*0x9e3779b97f4a7c15); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestFoldFromMatchesFullFold: the incremental fold against any base —
// including after copy-on-write divergence — equals the from-scratch fold.
func TestFoldFromMatchesFullFold(t *testing.T) {
	m := hashTestMemory(t)
	base := m.Checkpoint()
	if got, want := m.FoldFrom(base), m.FoldFrom(nil); got != want {
		t.Fatalf("undiverged incremental fold %x != full fold %x", got, want)
	}
	// Dirty a few words across pages (COW replaces those page pointers).
	for _, addr := range []uint64{0x10000, 0x10200, 0x10400 - 8} {
		v, err := m.Peek(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Poke(addr, v^0xdeadbeef); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := m.FoldFrom(base), m.FoldFrom(nil); got != want {
		t.Fatalf("diverged incremental fold %x != full fold %x", got, want)
	}
	cp := m.Checkpoint()
	if got, want := cp.Fold(), m.FoldFrom(nil); got != want {
		t.Fatalf("checkpoint fold %x != live memory fold %x", got, want)
	}
}

// TestFoldSensitivity: the XOR fold must not cancel under the two classic
// failure modes of position-independent hashing — the same value moved to
// a different word, and two pages with swapped contents.
func TestFoldSensitivity(t *testing.T) {
	build := func(mutate func(m *Memory)) uint64 {
		m := New()
		m.MustMap("data", 0x10000, 1024, PermRW)
		if mutate != nil {
			mutate(m)
		}
		return m.FoldFrom(nil)
	}
	base := build(nil)
	moved := build(func(m *Memory) {
		m.Poke(0x10000, 0x42)
	})
	movedElsewhere := build(func(m *Memory) {
		m.Poke(0x10000+512, 0x42)
	})
	if moved == base || movedElsewhere == base {
		t.Fatal("fold insensitive to a written word")
	}
	if moved == movedElsewhere {
		t.Fatal("fold cannot distinguish the same value at different pages")
	}
	swapped := build(func(m *Memory) {
		m.Poke(0x10000, 0x42)
		m.Poke(0x10000+512, 0x43)
	})
	swappedBack := build(func(m *Memory) {
		m.Poke(0x10000, 0x43)
		m.Poke(0x10000+512, 0x42)
	})
	if swapped == swappedBack {
		t.Fatal("fold cannot distinguish swapped page contents")
	}
}

// TestFoldConcurrentLazyHash: many goroutines folding against the same
// shared checkpoint must agree; run under -race this also proves that
// folding only reads the checkpoint, whose hashes are computed when it is
// taken.
func TestFoldConcurrentLazyHash(t *testing.T) {
	m := hashTestMemory(t)
	cp := m.Checkpoint()
	want := m.FoldFrom(nil)
	var wg sync.WaitGroup
	got := make([]uint64, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = cp.Fold()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("goroutine %d folded %x, want %x", i, g, want)
		}
	}
}
