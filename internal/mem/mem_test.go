package mem

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMapAndReadWrite(t *testing.T) {
	m := New()
	if _, err := m.Map("data", 0x1000, 64, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0x1008, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read64(0x1008)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Fatalf("Read64 = %#x, want 0xdeadbeef", v)
	}
}

func TestUnmappedFault(t *testing.T) {
	m := New()
	m.MustMap("data", 0x1000, 64, PermRW)
	_, err := m.Read64(0x8000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %v", err)
	}
	if f.Kind != FaultUnmapped || f.Access != AccessRead || f.Addr != 0x8000 {
		t.Errorf("fault = %+v", f)
	}
}

func TestProtectionFault(t *testing.T) {
	m := New()
	m.MustMap("ro", 0x1000, 64, PermRead)
	err := m.Write64(0x1000, 1)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %v", err)
	}
	if f.Kind != FaultProtection || f.Region != "ro" {
		t.Errorf("fault = %+v", f)
	}
	// Reading is still fine.
	if _, err := m.Read64(0x1000); err != nil {
		t.Errorf("read of read-only region failed: %v", err)
	}
}

func TestUnalignedFault(t *testing.T) {
	m := New()
	m.MustMap("data", 0x1000, 64, PermRW)
	if _, err := m.Read64(0x1001); err == nil {
		t.Fatal("expected unaligned fault")
	}
	var f *Fault
	_, err := m.Read64(0x1004)
	if !errors.As(err, &f) || f.Kind != FaultUnaligned {
		t.Errorf("fault = %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	m := New()
	m.MustMap("a", 0x1000, 0x100, PermRW)
	if _, err := m.Map("b", 0x1080, 0x100, PermRW); err == nil {
		t.Fatal("expected overlap error")
	}
	if _, err := m.Map("c", 0x1100, 0x100, PermRW); err != nil {
		t.Fatalf("adjacent region should be fine: %v", err)
	}
}

func TestZeroSizeAndMisalignedStartRejected(t *testing.T) {
	m := New()
	if _, err := m.Map("z", 0x1000, 0, PermRW); err == nil {
		t.Error("zero-size region accepted")
	}
	if _, err := m.Map("m", 0x1001, 8, PermRW); err == nil {
		t.Error("misaligned region accepted")
	}
}

func TestFindAndRegionLookup(t *testing.T) {
	m := New()
	m.MustMap("low", 0x1000, 0x100, PermRW)
	m.MustMap("high", 0x9000, 0x100, PermRW)
	if r := m.Find(0x1080); r == nil || r.Name != "low" {
		t.Errorf("Find(0x1080) = %v", r)
	}
	if r := m.Find(0x90f8); r == nil || r.Name != "high" {
		t.Errorf("Find(0x90f8) = %v", r)
	}
	if r := m.Find(0x9100); r != nil {
		t.Errorf("Find past end = %v, want nil", r)
	}
	if r := m.Find(0x0); r != nil {
		t.Errorf("Find(0) = %v, want nil", r)
	}
	if m.Region("low") == nil || m.Region("nope") != nil {
		t.Error("Region lookup by name broken")
	}
}

func TestPokePeekBypassPermissions(t *testing.T) {
	m := New()
	m.MustMap("ro", 0x1000, 64, PermRead)
	if err := m.Poke(0x1000, 77); err != nil {
		t.Fatal(err)
	}
	v, err := m.Peek(0x1000)
	if err != nil || v != 77 {
		t.Fatalf("Peek = %d, %v", v, err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	m.MustMap("a", 0x1000, 64, PermRW)
	m.MustMap("b", 0x2000, 64, PermRW)
	if err := m.Write64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Write64(0x1000, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0x2000, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 1 {
		t.Errorf("restored a[0] = %d, want 1", v)
	}
	if v, _ := m.Read64(0x2000); v != 0 {
		t.Errorf("restored b[0] = %d, want 0", v)
	}
}

func TestRestoreMismatch(t *testing.T) {
	m := New()
	m.MustMap("a", 0x1000, 64, PermRW)
	if err := m.Restore(map[string][]uint64{}); err == nil {
		t.Error("expected missing-region error")
	}
	if err := m.Restore(map[string][]uint64{"a": make([]uint64, 1)}); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestRegionZero(t *testing.T) {
	m := New()
	r := m.MustMap("a", 0x1000, 64, PermRW)
	if err := m.Write64(0x1010, 9); err != nil {
		t.Fatal(err)
	}
	r.Zero()
	if v, _ := m.Read64(0x1010); v != 0 {
		t.Errorf("after Zero, word = %d", v)
	}
}

// Property: any value written to any mapped, aligned address reads back
// identically, and writes never bleed into neighbouring words.
func TestReadWriteRoundTripProperty(t *testing.T) {
	m := New()
	const base, size = 0x1000, 0x400
	m.MustMap("data", base, size, PermRW)
	f := func(off uint16, val uint64) bool {
		addr := base + (uint64(off)%(size/8))*8
		var left, right uint64
		if addr > base {
			left, _ = m.Read64(addr - 8)
		}
		if addr+8 < base+size {
			right, _ = m.Read64(addr + 8)
		}
		if err := m.Write64(addr, val); err != nil {
			return false
		}
		got, err := m.Read64(addr)
		if err != nil || got != val {
			return false
		}
		if addr > base {
			if l, _ := m.Read64(addr - 8); l != left {
				return false
			}
		}
		if addr+8 < base+size {
			if r, _ := m.Read64(addr + 8); r != right {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFaultErrorStrings(t *testing.T) {
	f := &Fault{Kind: FaultProtection, Access: AccessWrite, Addr: 0x42, Region: "ro"}
	if s := f.Error(); s == "" {
		t.Error("empty error string")
	}
	f2 := &Fault{Kind: FaultUnmapped, Access: AccessRead, Addr: 0x42}
	if s := f2.Error(); s == "" {
		t.Error("empty error string")
	}
	for _, k := range []FaultKind{FaultUnmapped, FaultProtection, FaultUnaligned} {
		if k.String() == "unknown" {
			t.Errorf("FaultKind %d unnamed", k)
		}
	}
}

func TestCheckpointIsolatesLaterWrites(t *testing.T) {
	m := New()
	m.MustMap("a", 0x1000, 0x800, PermRW) // spans several pages
	if err := m.Write64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	// Writes after the capture must not leak into the checkpoint.
	if err := m.Write64(0x1000, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0x1400, 9); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 1 {
		t.Errorf("restored word = %d, want 1", v)
	}
	if v, _ := m.Read64(0x1400); v != 0 {
		t.Errorf("restored untouched word = %d, want 0", v)
	}
}

func TestCheckpointRestoreIntoSecondMemory(t *testing.T) {
	layout := func() *Memory {
		m := New()
		m.MustMap("a", 0x1000, 0x200, PermRW)
		m.MustMap("b", 0x2000, 0x200, PermRW)
		return m
	}
	src := layout()
	for off := uint64(0); off < 0x200; off += 8 {
		if err := src.Write64(0x1000+off, off); err != nil {
			t.Fatal(err)
		}
	}
	cp := src.Checkpoint()

	dst := layout()
	if err := dst.Write64(0x2000, 42); err != nil { // dirty state to be wiped
		t.Fatal(err)
	}
	if err := dst.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 0x200; off += 8 {
		if v, _ := dst.Read64(0x1000 + off); v != off {
			t.Fatalf("dst a[%#x] = %d, want %d", off, v, off)
		}
	}
	if v, _ := dst.Read64(0x2000); v != 0 {
		t.Errorf("dst b[0] = %d, want 0 (checkpoint value)", v)
	}
	// COW isolation: dst's writes must not bleed back into src or the
	// checkpoint.
	if err := dst.Write64(0x1000, 777); err != nil {
		t.Fatal(err)
	}
	if v, _ := src.Read64(0x1000); v != 0 {
		t.Errorf("src saw dst's write: %d", v)
	}
	third := layout()
	if err := third.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if v, _ := third.Read64(0x1000); v != 0 {
		t.Errorf("checkpoint corrupted by dst write: %d", v)
	}
}

func TestCheckpointConcurrentRestores(t *testing.T) {
	src := New()
	src.MustMap("a", 0x1000, 0x1000, PermRW)
	for off := uint64(0); off < 0x1000; off += 8 {
		if err := src.Write64(0x1000+off, off^0x5a5a); err != nil {
			t.Fatal(err)
		}
	}
	cp := src.Checkpoint()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := New()
			m.MustMap("a", 0x1000, 0x1000, PermRW)
			if err := m.RestoreCheckpoint(cp); err != nil {
				t.Error(err)
				return
			}
			// Interleave reads of shared pages with COW writes.
			for off := uint64(0); off < 0x1000; off += 8 {
				if v, _ := m.Read64(0x1000 + off); v != off^0x5a5a {
					t.Errorf("g%d: word %#x = %d", g, off, v)
					return
				}
				if off%64 == uint64(g*8)%64 {
					if err := m.Write64(0x1000+off, uint64(g)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCheckpointLayoutMismatch(t *testing.T) {
	src := New()
	src.MustMap("a", 0x1000, 64, PermRW)
	cp := src.Checkpoint()
	other := New()
	other.MustMap("b", 0x1000, 64, PermRW)
	if err := other.RestoreCheckpoint(cp); err == nil {
		t.Error("expected missing-region error")
	}
	bigger := New()
	bigger.MustMap("a", 0x1000, 0x1000, PermRW)
	if err := bigger.RestoreCheckpoint(cp); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestSnapshotRestoreDoesNotCorruptCheckpoint(t *testing.T) {
	// The flat Snapshot/Restore oracle and the campaign path
	// (Checkpoint/RestoreCheckpoint) coexist on the same pages: a Restore
	// must rebuild pages rather than write shared ones in place.
	m := New()
	m.MustMap("a", 0x1000, 0x200, PermRW)
	if err := m.Write64(0x1000, 5); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	snap := m.Snapshot()
	if err := m.Write64(0x1000, 6); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 5 {
		t.Fatalf("snapshot restore gave %d, want 5", v)
	}
	if err := m.Write64(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	fresh := New()
	fresh.MustMap("a", 0x1000, 0x200, PermRW)
	if err := fresh.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if v, _ := fresh.Read64(0x1000); v != 5 {
		t.Errorf("checkpoint word = %d, want 5", v)
	}
}

func TestZeroAfterCheckpointPreservesCheckpoint(t *testing.T) {
	m := New()
	r := m.MustMap("a", 0x1000, 64, PermRW)
	if err := m.Write64(0x1000, 3); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	r.Zero()
	if v, _ := m.Read64(0x1000); v != 0 {
		t.Fatalf("after Zero, word = %d", v)
	}
	if err := m.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 3 {
		t.Errorf("restored word = %d, want 3", v)
	}
}

// TestFailedRestoreChangesNothing: a restore that fails on a later
// region's layout must not have replaced an earlier region's pages, and
// the memory must still derive from its checkpoint, so a restore to that
// checkpoint brings back its contents.
func TestFailedRestoreChangesNothing(t *testing.T) {
	m := New()
	m.MustMap("a", 0x1000, 1024, PermRW)
	m.MustMap("b", 0x2000, 1024, PermRW)
	cp0 := m.Checkpoint()
	other := New()
	other.MustMap("a", 0x1000, 1024, PermRW)
	other.MustMap("b", 0x2000, 2048, PermRW)
	if err := other.Write64(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	cpX := other.Checkpoint()
	if err := m.RestoreCheckpoint(cpX); err == nil {
		t.Fatal("restoring a checkpoint with a larger region b succeeded")
	}
	if v, _ := m.Read64(0x1000); v != 0 {
		t.Errorf("a[0] = %d after the failed restore, want 0", v)
	}
	if err := m.RestoreCheckpoint(cp0); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 0 {
		t.Errorf("a[0] = %d after restoring cp0, want 0", v)
	}
}

// TestCheckpointSharesUnchangedChunks: after one word is written, the next
// checkpoint shares every page-table chunk but the written page's with its
// predecessor, and a restore between the two repoints only that chunk's
// pages. The restore is probed white-box: every slot outside the chunk
// gets a stand-in page the restore would replace if it touched the slot.
func TestCheckpointSharesUnchangedChunks(t *testing.T) {
	m := New()
	ra := m.MustMap("a", 0x10000, 64*pageWords*8, PermRW)
	rb := m.MustMap("b", 0x20000, 40*pageWords*8, PermRW) // short last chunk
	cp0 := m.Checkpoint()
	const page = 37 // chunk 2 of region a
	if err := m.Write64(ra.Start+page*pageWords*8+8, 1); err != nil {
		t.Fatal(err)
	}
	cp1 := m.Checkpoint()
	if got, want := cp1.Fold(), m.FoldFrom(nil); got != want {
		t.Fatalf("incremental checkpoint fold %x, from-scratch fold %x", got, want)
	}
	for i := range cp0.regions {
		for c, ch := range cp0.regions[i].chunks {
			shared := ch == cp1.regions[i].chunks[c]
			if written := i == 0 && c == page>>chunkShift; shared == written {
				t.Errorf("region %s chunk %d: shared = %v", cp0.regions[i].name, c, shared)
			}
		}
	}

	standIns := map[*Region]map[int][]uint64{ra: {}, rb: {}}
	for r, ins := range standIns {
		for p, pg := range r.pages {
			if r != ra || p>>chunkShift != page>>chunkShift {
				ins[p] = append([]uint64(nil), pg...)
				r.pages[p] = ins[p]
			}
		}
	}
	for _, tc := range []struct {
		to   *Checkpoint
		want uint64
	}{{cp0, 0}, {cp1, 1}} {
		if err := m.RestoreCheckpoint(tc.to); err != nil {
			t.Fatal(err)
		}
		if v, _ := m.Read64(ra.Start + page*pageWords*8 + 8); v != tc.want {
			t.Fatalf("restored word = %d, want %d", v, tc.want)
		}
		for r, ins := range standIns {
			for p, pg := range r.pages {
				if in, ok := ins[p]; ok && &in[0] != &pg[0] {
					t.Fatalf("restore repointed %s page %d outside the differing chunk", r.Name, p)
				}
			}
		}
		chunk := tc.to.regions[0].chunks[page>>chunkShift]
		for j, pg := range chunk.pages {
			if &ra.pages[page&^chunkMask+j][0] != &pg[0] {
				t.Fatalf("page %d of the differing chunk not reinstalled", page&^chunkMask+j)
			}
		}
	}
}

// machineLayout maps the simulated machine's regions at their sizes for
// three domains, as hv.MapMachineMemory does (mem cannot import hv).
func machineLayout() *Memory {
	m := New()
	m.MustMap("hv_data", 0x100000, 0x10000, PermRW)
	m.MustMap("hv_stack", 0x200000, 0x2000, PermRW)
	m.MustMap("shared_info", 0x300000, 3*0x1000, PermRW)
	m.MustMap("guest_buf", 0x400000, 3*0x10000, PermRW)
	m.MustMap("mmio", 0x600000, 0x1000, PermRW)
	return m
}

// isZeroPage reports whether pg is backed by the shared zero page.
func isZeroPage(pg []uint64) bool { return &pg[0] == &zeroPage[0] }

// TestMapSharesZeroPage: mapping the machine layout allocates page tables
// but no page contents, every slot reads zero from the shared zero page,
// and the first write copies exactly the written page (journaling it)
// while its neighbours stay on the zero page.
func TestMapSharesZeroPage(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := machineLayout()
	runtime.ReadMemStats(&after)
	var size uint64
	for _, r := range m.Regions() {
		size += r.Size
		for p, pg := range r.pages {
			if !isZeroPage(pg) || r.state[p] != pageShared {
				t.Fatalf("%s page %d: not the shared zero page after Map", r.Name, p)
			}
		}
	}
	// The page tables are 25 bytes per 512-byte page.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size/8 {
		t.Errorf("mapping %d bytes of memory allocated %d bytes", size, alloc)
	}
	r := m.Region("guest_buf")
	words := make([]uint64, r.Size/8)
	words[len(words)-1] = 1
	if err := m.PeekRange(r.Start, words); err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if w != 0 {
			t.Fatalf("guest_buf word %d = %#x on a fresh memory", i, w)
		}
	}

	const page = 5
	addr := r.Start + page*pageWords*8 + 16
	if f := m.Store(addr, 0xfeed); f != FaultNone {
		t.Fatal(f)
	}
	if v, _ := m.Read64(addr); v != 0xfeed {
		t.Fatalf("read back %#x, want 0xfeed", v)
	}
	for _, reg := range m.Regions() {
		for p, pg := range reg.pages {
			written := reg == r && p == page
			if isZeroPage(pg) == written || (reg.state[p] == pageShared) == written {
				t.Errorf("%s page %d: zero page = %v, state %d after writing guest_buf page %d",
					reg.Name, p, isZeroPage(pg), reg.state[p], page)
			}
		}
		journaled := len(reg.dirty) == 1 && reg.dirty[0] == page
		if reg == r && !journaled || reg != r && len(reg.dirty) != 0 {
			t.Errorf("%s dirty journal = %v", reg.Name, reg.dirty)
		}
	}
	checkZeroPage(t, m)
}

// checkZeroPage fails when the shared zero page holds a nonzero word,
// which only a write that bypassed cowPage can cause, or sits on a free
// list, from which cowPage would hand it out as a private page.
func checkZeroPage(t testing.TB, mems ...*Memory) {
	t.Helper()
	for i, w := range zeroPage {
		if w != 0 {
			t.Fatalf("zero page word %d = %#x", i, w)
		}
	}
	for _, m := range mems {
		for _, r := range m.regions {
			for _, pg := range r.freePages {
				if isZeroPage(pg) {
					t.Fatalf("region %s: the zero page is on the free list", r.Name)
				}
			}
		}
	}
}
