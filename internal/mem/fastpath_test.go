package mem

import (
	"testing"
)

// faultKindOf maps a Read64/Write64 error to its FaultKind (FaultNone for
// nil), so the slow accessors can be compared against Load/Store.
func faultKindOf(err error) FaultKind {
	if err == nil {
		return FaultNone
	}
	f, ok := err.(*Fault)
	if !ok {
		return ^FaultKind(0)
	}
	return f.Kind
}

// TestLoadStoreMatchRead64Write64 proves the allocation-free accessors and
// the error-returning ones agree on every fault class — the property the
// CPU's cold fault path relies on when it re-runs an access to rebuild the
// full *Fault.
func TestLoadStoreMatchRead64Write64(t *testing.T) {
	m := New()
	m.MustMap("rw", 0x1000, 0x1000, PermRW)
	m.MustMap("ro", 0x8000, 0x1000, PermRead)
	if err := m.Poke(0x1008, 0xBEEF); err != nil {
		t.Fatal(err)
	}

	addrs := []uint64{
		0x1008,  // mapped, RW
		0x1009,  // unaligned
		0x8008,  // read-only
		0x30000, // unmapped
		0x1FF8,  // last word of region
		0x2000,  // one past the end
	}
	for _, addr := range addrs {
		v1, fk := m.Load(addr)
		v2, err := m.Read64(addr)
		if fk != faultKindOf(err) || v1 != v2 {
			t.Errorf("load %#x: Load=(%#x,%v) Read64=(%#x,%v)", addr, v1, fk, v2, err)
		}
		sfk := m.Store(addr, 0x1234)
		serr := m.Write64(addr, 0x1234)
		if sfk != faultKindOf(serr) {
			t.Errorf("store %#x: Store=%v Write64=%v", addr, sfk, serr)
		}
	}
}

// TestTLBMatchesRegionSearch replays an access mix against two identically
// mapped memories and requires identical values and fault kinds. The
// reference drops its D-TLB before every access, so it answers each one
// from the region search, the D-TLB's oracle. One region is read-only with
// poked (so private) pages: the page fast path must never arm them, or a
// store after a load would skip its protection fault.
func TestTLBMatchesRegionSearch(t *testing.T) {
	const roStart, roSize = 0x70000, 0x2000
	build := func() *Memory {
		m := New()
		for i := uint64(0); i < 6; i++ {
			m.MustMap(string(rune('a'+i)), 0x10000*(i+1), 0x2000, PermRW)
		}
		m.MustMap("ro", roStart, roSize, PermRead)
		for a := uint64(roStart); a < roStart+roSize; a += 8 {
			if err := m.Poke(a, a^0x5a5a5a5a); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	tlb, ref := build(), build()
	load := func(addr uint64) FaultKind {
		t.Helper()
		ref.InvalidateTLB()
		va, fa := tlb.Load(addr)
		vb, fb := ref.Load(addr)
		if va != vb || fa != fb {
			t.Fatalf("load %#x: tlb=(%#x,%v) region search=(%#x,%v)", addr, va, fa, vb, fb)
		}
		return fa
	}
	store := func(addr, val uint64) FaultKind {
		t.Helper()
		ref.InvalidateTLB()
		a, b := tlb.Store(addr, val), ref.Store(addr, val)
		if a != b {
			t.Fatalf("store %#x: tlb=%v region search=%v", addr, a, b)
		}
		return a
	}
	for _, addr := range []uint64{roStart, roStart + 0x208, roStart + roSize - 8} {
		if fk := load(addr); fk != FaultNone {
			t.Fatalf("load %#x from the read-only region: %v", addr, fk)
		}
		if fk := store(addr, 1); fk != FaultProtection {
			t.Fatalf("store %#x after a load: %v, want %v", addr, fk, FaultProtection)
		}
	}
	state := uint64(0x243F6A8885A308D3)
	for i := 0; i < 5000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		addr := state % 0x80000 // mapped, read-only and unmapped alike
		addr &^= 7
		if i%3 == 0 {
			store(addr, state)
		} else {
			load(addr)
		}
	}
}

// TestTLBInvalidatedOnMapAndRestore exercises the two declared TLB
// invalidation points: mapping a new region and restoring a checkpoint.
func TestTLBInvalidatedOnMapAndRestore(t *testing.T) {
	m := New()
	m.MustMap("a", 0x1000, 0x1000, PermRW)
	if fk := m.Store(0x1000, 7); fk != FaultNone {
		t.Fatal(fk)
	}
	// Warm the TLB with a miss-adjacent region, then map the address.
	if _, fk := m.Load(0x40000); fk != FaultUnmapped {
		t.Fatalf("expected unmapped before Map")
	}
	m.MustMap("b", 0x40000, 0x1000, PermRW)
	if fk := m.Store(0x40000, 9); fk != FaultNone {
		t.Fatalf("store after Map: %v", fk)
	}
	if v, fk := m.Load(0x40000); fk != FaultNone || v != 9 {
		t.Fatalf("load after Map = (%d,%v), want 9", v, fk)
	}

	cp := m.Checkpoint()
	if fk := m.Store(0x1000, 1234); fk != FaultNone {
		t.Fatal(fk)
	}
	if err := m.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	// A warm TLB entry must not serve pre-restore page contents.
	if v, fk := m.Load(0x1000); fk != FaultNone || v != 7 {
		t.Fatalf("load after restore = (%d,%v), want 7", v, fk)
	}
}

// TestPokeRangeMatchesPoke checks the batched staging write against the
// word-at-a-time poke, including copy-on-write behavior under an
// outstanding checkpoint.
func TestPokeRangeMatchesPoke(t *testing.T) {
	a, b := New(), New()
	a.MustMap("buf", 0x1000, 0x1000, PermRW)
	b.MustMap("buf", 0x1000, 0x1000, PermRW)

	vals := make([]uint64, 200) // spans multiple 512-byte pages
	for i := range vals {
		vals[i] = uint64(i)*2654435761 + 1
	}
	cpA := a.Checkpoint() // force the batched write through the COW path
	if err := a.PokeRange(0x1008, vals); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if err := b.Poke(0x1008+uint64(i)*8, v); err != nil {
			t.Fatal(err)
		}
	}
	gotA := make([]uint64, len(vals))
	gotB := make([]uint64, len(vals))
	if err := a.PeekRange(0x1008, gotA); err != nil {
		t.Fatal(err)
	}
	if err := b.PeekRange(0x1008, gotB); err != nil {
		t.Fatal(err)
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("word %d: PokeRange wrote %#x, Poke wrote %#x", i, gotA[i], gotB[i])
		}
	}

	// The checkpoint must still see the pre-write contents.
	if err := a.RestoreCheckpoint(cpA); err != nil {
		t.Fatal(err)
	}
	if v, fk := a.Load(0x1008); fk != FaultNone || v != 0 {
		t.Fatalf("after restore word = (%d,%v), want 0", v, fk)
	}

	// Error cases write nothing.
	if err := a.PokeRange(0x1001, vals); err == nil {
		t.Fatal("unaligned PokeRange succeeded")
	}
	if err := a.PokeRange(0x1FF8, []uint64{1, 2}); err == nil {
		t.Fatal("range past region end succeeded")
	}
	if v, _ := a.Load(0x1FF8); v != 0 {
		t.Fatalf("failed PokeRange wrote %#x", v)
	}
}

// BenchmarkMemAccess measures one mapped load through the software D-TLB
// against the region search (Find) it caches. The loaded page is written
// first: a fresh region shares the zero page, which the page fast path
// never arms.
func BenchmarkMemAccess(b *testing.B) {
	m := New()
	for i := uint64(0); i < 8; i++ {
		m.MustMap(string(rune('a'+i)), 0x10000*(i+1), 0x1000, PermRW)
	}
	for i := uint64(0); i < 64; i++ {
		if fk := m.Store(0x30000+i*8, i); fk != FaultNone {
			b.Fatal(fk)
		}
	}
	b.Run("tlb-hit", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			v, fk := m.Load(0x30000 + uint64(i%64)*8)
			if fk != FaultNone {
				b.Fatal(fk)
			}
			sink += v
		}
		_ = sink
	})
	b.Run("search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m.Find(0x30000+uint64(i%64)*8) == nil {
				b.Fatal("unmapped")
			}
		}
	})
}
