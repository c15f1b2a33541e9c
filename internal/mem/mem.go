// Package mem implements the simulated machine's physical memory: a set of
// typed, permission-checked regions (hypervisor data and stack, per-domain
// memory, shared-info pages, device MMIO) over a flat 64-bit address space.
// Accesses outside any region, or violating a region's permissions, return
// a *Fault that the CPU core turns into the corresponding architectural
// exception — exactly the signal Xentry's hardware-exception detector
// consumes.
//
// Region contents are stored as fixed-size pages with copy-on-write
// sharing, and consecutive checkpoints share the chunks of their page
// tables that did not change, so a Checkpoint costs the pages written
// since the previous one and many machines can be restored from the same
// checkpoint concurrently — the substrate the campaign engine's
// checkpoint pool stands on. A freshly mapped region shares one
// process-wide zero page in every slot, so building a machine allocates
// page tables only and each page is copied at its first write. The same
// write barrier carries a one-level undo epoch (Mark/Rollback), the
// allocation-free VM-exit snapshot live recovery takes at every step.
package mem

import (
	"errors"
	"fmt"
	"sort"
)

// Perm is a permission bit mask for a region.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

// AccessKind distinguishes the operation that faulted.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
)

// String names the access kind.
func (k AccessKind) String() string {
	if k == AccessWrite {
		return "write"
	}
	return "read"
}

// FaultKind classifies a memory fault.
type FaultKind uint8

// Fault kinds. FaultNone is the zero value so the allocation-free fast
// accessors (Load/Store) can report "no fault" without boxing an error.
const (
	// FaultNone: the access succeeded (fast-path accessors only).
	FaultNone FaultKind = iota
	// FaultUnmapped: the address belongs to no region (fatal page fault).
	FaultUnmapped
	// FaultProtection: the region exists but forbids the access (#GP-like).
	FaultProtection
	// FaultUnaligned: address not 8-byte aligned for a 64-bit access.
	FaultUnaligned
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	case FaultUnaligned:
		return "unaligned"
	}
	return "unknown"
}

// Fault describes a failed memory access.
type Fault struct {
	Kind   FaultKind
	Access AccessKind
	Addr   uint64
	Region string // name of the violated region, if any
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Region != "" {
		return fmt.Sprintf("mem: %s fault on %s of %#x (region %s)", f.Kind, f.Access, f.Addr, f.Region)
	}
	return fmt.Sprintf("mem: %s fault on %s of %#x", f.Kind, f.Access, f.Addr)
}

// Page geometry: 64 words (512 bytes) balances checkpoint granularity
// against per-page bookkeeping for this machine's ~280 KiB of memory.
const (
	pageShift = 6
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// pageState is a page slot's write protection.
type pageState uint8

const (
	// pagePrivate: the page object belongs to this slot alone and is
	// written in place.
	pagePrivate pageState = iota
	// pageShared: the page object also belongs to at least one Checkpoint,
	// or it is the process-wide zeroPage a fresh region starts from. It is
	// copied before it is written and never recycled.
	pageShared
	// pageGuarded: private, but it is the open undo epoch's pre-image (see
	// Mark), so it is copied before it is written and kept for Rollback.
	pageGuarded
)

// Region is a contiguous mapped range.
type Region struct {
	Name  string
	Start uint64
	Size  uint64
	Perm  Perm

	// pages holds the contents; state[p] says whether pages[p] may be
	// written in place (pagePrivate) or must first be copied by cowPage.
	pages [][]uint64
	state []pageState
	// freePages recycles full-size private pages nothing references any
	// more — displaced by RestoreCheckpoint or Rollback, or the pre-images
	// an ended undo epoch no longer needs — for later copy-on-write copies.
	// A page that is or was ever shared is never recycled: only slots in
	// state pageShared hold Checkpoint pages, and cowPage replaces, rather
	// than writes, such a slot's page. Recycling therefore is invisible; it
	// exists because a campaign worker restoring before every injection
	// would otherwise reallocate each touched page per run. Bounded by the
	// pages this region ever had live at once.
	freePages [][]uint64
	// dirty journals the pages privatized from shared since the last
	// checkpoint/restore boundary. cowPage is the single funnel every
	// write to a protected page passes through (setWord, writablePage,
	// storeSlow and Zero all route non-private pages here; the fast paths
	// only ever write private pages), so the journal is exact and
	// duplicate-free: between boundaries a page turns from shared to
	// private once, unless Rollback re-shares it, which drops its entry.
	// While the Memory derives from a checkpoint (lastCP), the journal is
	// the whole difference from it: Checkpoint clones and rehashes only
	// its pages' chunks, RestoreCheckpoint reverts only its pages, and
	// FoldFrom rehashes only its pages. The fold XORs each journaled
	// page's change in once, so a duplicate entry would cancel it. Before
	// the first boundary (after Map) it holds the pages privatized from
	// zeroPage, which nothing reads: those boundaries walk every page.
	dirty []uint32
	// marked reports an open undo epoch; while it is set, cowPage journals
	// each slot's replaced page and state in undo, the log Rollback replays
	// and the next epoch boundary commits. A slot is journaled at most once
	// per epoch: its first copy leaves it private.
	marked bool
	undo   []undoEntry
}

// undoEntry is one slot's content from before the open epoch's first write.
type undoEntry struct {
	p     uint32
	state pageState
	page  []uint64
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Start + r.Size }

func (r *Region) contains(addr uint64) bool {
	return addr >= r.Start && addr < r.End()
}

// zeroPage backs every page of a freshly mapped region (Map): the slots
// hold it in state pageShared, so cowPage copies it at the page's first
// write and nothing ever writes it in place or recycles it. A short tail
// page holds a prefix of it.
var zeroPage [pageWords]uint64

// newPage allocates a zeroed page of n ≤ pageWords words. Every page
// slice, a short tail page included, is a prefix of a whole pageWords-word
// array (its capacity is pageWords), so a Checkpoint chunk can hold the
// page as one array pointer (pageArray) instead of a slice header.
func newPage(n int) []uint64 { return new([pageWords]uint64)[:n] }

// pageArray returns the array backing page pg.
func pageArray(pg []uint64) *[pageWords]uint64 { return (*[pageWords]uint64)(pg[:pageWords]) }

// zeroPages returns a page table for n words with every slot on zeroPage,
// all shared (the last page may be short).
func zeroPages(n uint64) ([][]uint64, []pageState) {
	pages := make([][]uint64, (n+pageWords-1)/pageWords)
	state := make([]pageState, len(pages))
	for i := range pages {
		l := uint64(pageWords)
		if rem := n - uint64(i)*pageWords; rem < l {
			l = rem
		}
		pages[i] = zeroPage[:l]
		state[i] = pageShared
	}
	return pages, state
}

// newPages allocates fresh zeroed pages for n words (the last page may be
// short).
func newPages(n uint64) [][]uint64 {
	pages, _ := zeroPages(n)
	for i, p := range pages {
		pages[i] = newPage(len(p))
	}
	return pages
}

// word reads word index i of the region.
func (r *Region) word(i uint64) uint64 {
	return r.pages[i>>pageShift][i&pageMask]
}

// setWord writes word index i, copying the page first if it is shared with
// a checkpoint or guarded by the undo epoch (copy-on-write). Copies reuse
// recycled pages when possible.
func (r *Region) setWord(i, v uint64) {
	p := i >> pageShift
	if r.state[p] != pagePrivate {
		r.cowPage(p)
	}
	r.pages[p][i&pageMask] = v
}

// writablePage returns page p ready for mutation, privatizing it first if
// it is shared or guarded.
func (r *Region) writablePage(p uint64) []uint64 {
	if r.state[p] != pagePrivate {
		r.cowPage(p)
	}
	return r.pages[p]
}

// cowPage privatizes a shared or guarded page before its first write,
// popping a recycled page when one is available and allocating otherwise,
// and journals the replaced page: in dirty when it was shared, in undo
// when an epoch is open. Outlined from setWord so the no-copy store path
// inlines into Store.
func (r *Region) cowPage(p uint64) {
	old := r.pages[p]
	var np []uint64
	if n := len(r.freePages); n > 0 && len(old) == pageWords {
		np = r.freePages[n-1]
		r.freePages = r.freePages[:n-1]
	} else {
		np = newPage(len(old))
	}
	copy(np, old)
	r.pages[p] = np
	if r.marked {
		r.undo = append(r.undo, undoEntry{p: uint32(p), state: r.state[p], page: old})
	}
	if r.state[p] == pageShared {
		r.dirty = append(r.dirty, uint32(p))
	}
	r.state[p] = pagePrivate
}

// recycle puts a page nothing references any more on the free list.
// Short tail pages are left to the garbage collector: cowPage only reuses
// full-size ones.
func (r *Region) recycle(pg []uint64) {
	if len(pg) == pageWords {
		r.freePages = append(r.freePages, pg)
	}
}

// D-TLB geometry: the cache is direct-mapped and indexed by the access
// address's page number (512-byte pages, matching the checkpoint page
// size). Entries carry a *Region verified with a containment check on
// every hit, so an entry can never satisfy an access the binary search
// would not — at worst a stale or conflicting entry costs one extra miss.
const (
	tlbByteShift = pageShift + 3 // 512-byte pages
	tlbSize      = 64
	tlbMask      = tlbSize - 1
)

// TLBSlots is the number of D-TLB entries — the index space of the
// injection taxonomy's D-TLB site class.
const TLBSlots = tlbSize

// tlbEntry is one direct-mapped D-TLB slot. It caches two translation
// levels:
//
//   - region, the classic entry: addr → containing *Region, verified by a
//     containment check on every hit. Valid independently of the page
//     fields below.
//   - page/tag, the page fast path: a direct pointer to the backing page
//     for the slot's 512-byte window, letting Load/Store skip the region
//     deref, permission check, COW test, and double page indexing. An
//     entry is installed only when every check it skips is statically
//     satisfied: the region is PermRW, its Start is 512-byte aligned (so
//     the window maps to exactly one full page), the page is full-size,
//     and the page is private — neither shared (with a Checkpoint, or the
//     zero page of a fresh region) nor guarded by the undo epoch, any of
//     which writing in place would corrupt. tag is the address's page
//     number; page != nil && tag match is the hit condition, so a zeroed
//     entry is invalid.
//
// The page pointer can only go stale when pages are repointed or stop
// being private: Checkpoint, RestoreCheckpoint, Mark, Rollback, Restore,
// and Map all invalidate the whole TLB; cowPage only ever repoints shared
// or guarded pages, which are never cached; Region.Zero clears contents
// in place through the COW path instead of repointing.
type tlbEntry struct {
	region *Region
	page   *[pageWords]uint64
	tag    uint64
}

// Memory is the machine's physical memory map.
type Memory struct {
	regions []*Region // sorted by Start

	// tlb is the software D-TLB: a direct-mapped translation cache that
	// lets straight-line handler code (stack traffic in one slot, data
	// traffic in others) skip the per-access binary search in locate and —
	// via the per-slot page pointer — the per-access COW and permission
	// checks. It is pure cache: hits are verified or pre-verified at
	// install time, so a stale entry is a miss, never a wrong answer. It
	// is nevertheless invalidated at every structural change point (Map,
	// Restore, Checkpoint, RestoreCheckpoint, Mark, Rollback) to keep the
	// invariant auditable.
	tlb [tlbSize]tlbEntry

	// lastCP is the checkpoint this memory's pages currently derive from:
	// set by Checkpoint and RestoreCheckpoint, cleared by any structural
	// change (Map, the deprecated Restore), and untouched by undo epochs.
	// While it is set, every shared page slot holds lastCP's page and
	// every page that is not shared is journaled dirty, so Checkpoint,
	// RestoreCheckpoint and FoldFrom walk the journal and lastCP's chunks
	// instead of every page.
	lastCP *Checkpoint

	// marked reports an open undo epoch (Mark); see Region.marked.
	marked bool
}

// New returns an empty memory map.
func New() *Memory { return &Memory{} }

// InvalidateTLB drops every cached translation, so the next access to
// each slot takes the region search. Map and the checkpoint, restore and
// undo-epoch operations invalidate internally. The D-TLB's oracle calls it
// before every access: TestTLBMatchesRegionSearch against a memory that
// keeps its cache, and the cpu package's traced differential variant at
// every step.
func (m *Memory) InvalidateTLB() {
	m.tlb = [tlbSize]tlbEntry{}
}

// lookup resolves addr to its region through the D-TLB, falling back to
// (and refilling from) the binary search.
func (m *Memory) lookup(addr uint64) *Region {
	slot := (addr >> tlbByteShift) & tlbMask
	if r := m.tlb[slot].region; r != nil && addr-r.Start < r.Size {
		return r
	}
	return m.lookupSlow(addr, slot)
}

// lookupSlow is the TLB-miss path: binary search, then refill the slot.
// A refill that changes the slot's region drops the page fast path with it,
// keeping the entry's two halves consistent: an armed page always belongs
// to the entry's own region. (The fast path never needed that — a hit is
// decided by the tag alone — but the TLB coherence audit in TLBHash does.)
func (m *Memory) lookupSlow(addr, slot uint64) *Region {
	r := m.Find(addr)
	if r != nil {
		if e := &m.tlb[slot]; e.region != r {
			*e = tlbEntry{region: r}
		}
	}
	return r
}

// installPage arms the page fast path for addr's TLB slot when every
// check the fast path skips is statically satisfied; see tlbEntry. Called
// from the Load/Store miss paths after the access has been fully
// validated (and any COW copy performed), so the page is known private.
func (m *Memory) installPage(e *tlbEntry, r *Region, addr uint64) {
	if r.Perm&PermRW != PermRW || r.Start%(pageWords*8) != 0 {
		return
	}
	p := (addr - r.Start) / 8 >> pageShift
	if r.state[p] != pagePrivate || len(r.pages[p]) != pageWords {
		return
	}
	e.page = (*[pageWords]uint64)(r.pages[p])
	e.tag = addr >> tlbByteShift
}

// FlipTLBTag models a soft error striking a D-TLB entry: it toggles one
// bit of the tag word of the given slot. Only the tag is perturbed —
// entries carry Go pointers that must stay intact — which is exactly the
// hardware fault model: a corrupted tag either stops matching its own
// window (a stale entry, observationally a miss) or starts matching a
// different address whose accesses map to this slot, serving that window
// a wrong page. It returns false when the slot holds no armed page entry,
// i.e. there is nothing live to corrupt.
func (m *Memory) FlipTLBTag(slot int, bit uint8) bool {
	e := &m.tlb[uint64(slot)&tlbMask]
	if e.page == nil {
		return false
	}
	e.tag ^= 1 << (bit & 63)
	return true
}

// Map adds a region. Regions may not overlap; size is rounded up to a
// multiple of 8 bytes. The region reads as zeros and allocates no page
// contents: every slot shares zeroPage until its first write copies it.
func (m *Memory) Map(name string, start, size uint64, perm Perm) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("mem: region %q has zero size", name)
	}
	if start%8 != 0 {
		return nil, fmt.Errorf("mem: region %q start %#x not 8-byte aligned", name, start)
	}
	size = (size + 7) &^ 7
	pages, state := zeroPages(size / 8)
	r := &Region{Name: name, Start: start, Size: size, Perm: perm,
		pages: pages, state: state}
	for _, other := range m.regions {
		if start < other.End() && other.Start < r.End() {
			return nil, fmt.Errorf("mem: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				name, start, r.End(), other.Name, other.Start, other.End())
		}
	}
	m.endEpoch()
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Start < m.regions[j].Start })
	m.InvalidateTLB()
	m.lastCP = nil // any prior checkpoint no longer covers the layout
	return r, nil
}

// MustMap is Map that panics on error, for static machine layout.
func (m *Memory) MustMap(name string, start, size uint64, perm Perm) *Region {
	r, err := m.Map(name, start, size, perm)
	if err != nil {
		panic(err)
	}
	return r
}

// Find returns the region containing addr, or nil.
func (m *Memory) Find(addr uint64) *Region {
	// Binary search over sorted regions.
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := m.regions[mid]
		switch {
		case addr < r.Start:
			hi = mid
		case addr >= r.End():
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// Region returns the named region, or nil.
func (m *Memory) Region(name string) *Region {
	for _, r := range m.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Regions returns all regions in address order.
func (m *Memory) Regions() []*Region { return m.regions }

func (m *Memory) locate(addr uint64, access AccessKind, need Perm) (*Region, error) {
	if addr%8 != 0 {
		return nil, &Fault{Kind: FaultUnaligned, Access: access, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil {
		return nil, &Fault{Kind: FaultUnmapped, Access: access, Addr: addr}
	}
	if r.Perm&need == 0 {
		return nil, &Fault{Kind: FaultProtection, Access: access, Addr: addr, Region: r.Name}
	}
	return r, nil
}

// Load is the CPU core's allocation-free read: it returns the word and
// FaultNone on success, or the fault kind with no heap traffic. The cold
// path rebuilds the full *Fault through Read64, which reproduces the same
// classification bit for bit.
// LoadHit is the page-TLB probe alone: it returns the word and true on a
// page hit, false on any miss (including unaligned or unmapped addresses),
// deciding nothing about why. It is small enough to inline into the CPU's
// per-instruction closures; callers fall back to Load, which re-probes and
// classifies. A hit is exactly Load's fast path: install-time checks
// guarantee the page is private, full-size, and in a PermRW region.
func (m *Memory) LoadHit(addr uint64) (uint64, bool) {
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		return e.page[addr/8&pageMask], true
	}
	return 0, false
}

// StoreHit is LoadHit's write twin: true means the word was written.
func (m *Memory) StoreHit(addr, val uint64) bool {
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		e.page[addr/8&pageMask] = val
		return true
	}
	return false
}

func (m *Memory) Load(addr uint64) (uint64, FaultKind) {
	// The page-hit probe is the whole body so Load inlines into the CPU's
	// per-instruction closures: a hit is a tag compare and a direct indexed
	// read (install-time checks guarantee the page is private, full-size,
	// and in a readable region). Everything else — region probe, binary
	// search, permission and alignment faults — is the outlined loadSlow.
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		return e.page[addr/8&pageMask], FaultNone
	}
	return m.loadSlow(e, addr)
}

// loadSlow is Load's page-miss path.
func (m *Memory) loadSlow(e *tlbEntry, addr uint64) (uint64, FaultKind) {
	if addr%8 != 0 {
		return 0, FaultUnaligned
	}
	r := e.region
	if r == nil || addr-r.Start >= r.Size {
		if r = m.lookupSlow(addr, (addr>>tlbByteShift)&tlbMask); r == nil {
			return 0, FaultUnmapped
		}
	}
	if r.Perm&PermRead == 0 {
		return 0, FaultProtection
	}
	v := r.word((addr - r.Start) / 8)
	m.installPage(e, r, addr)
	return v, FaultNone
}

// Store is the CPU core's allocation-free write, mirroring Load.
func (m *Memory) Store(addr, val uint64) FaultKind {
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		e.page[addr/8&pageMask] = val
		return FaultNone
	}
	return m.storeSlow(e, addr, val)
}

// storeSlow is Store's page-miss path: the COW copy, if one is due,
// happens here before the write and before the page fast path is armed.
func (m *Memory) storeSlow(e *tlbEntry, addr, val uint64) FaultKind {
	if addr%8 != 0 {
		return FaultUnaligned
	}
	r := e.region
	if r == nil || addr-r.Start >= r.Size {
		if r = m.lookupSlow(addr, (addr>>tlbByteShift)&tlbMask); r == nil {
			return FaultUnmapped
		}
	}
	if r.Perm&PermWrite == 0 {
		return FaultProtection
	}
	i := (addr - r.Start) / 8
	p := i >> pageShift
	if r.state[p] != pagePrivate {
		r.cowPage(p)
	}
	r.pages[p][i&pageMask] = val
	m.installPage(e, r, addr)
	return FaultNone
}

// Read64 loads the 64-bit word at addr.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	r, err := m.locate(addr, AccessRead, PermRead)
	if err != nil {
		return 0, err
	}
	return r.word((addr - r.Start) / 8), nil
}

// Write64 stores the 64-bit word at addr.
func (m *Memory) Write64(addr, val uint64) error {
	r, err := m.locate(addr, AccessWrite, PermWrite)
	if err != nil {
		return err
	}
	r.setWord((addr-r.Start)/8, val)
	return nil
}

// Poke writes ignoring permissions (loader/testing backdoor).
func (m *Memory) Poke(addr, val uint64) error {
	if addr%8 != 0 {
		return &Fault{Kind: FaultUnaligned, Access: AccessWrite, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil {
		return &Fault{Kind: FaultUnmapped, Access: AccessWrite, Addr: addr}
	}
	r.setWord((addr-r.Start)/8, val)
	return nil
}

// Peek reads ignoring permissions (monitoring backdoor).
func (m *Memory) Peek(addr uint64) (uint64, error) {
	if addr%8 != 0 {
		return 0, &Fault{Kind: FaultUnaligned, Access: AccessRead, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil {
		return 0, &Fault{Kind: FaultUnmapped, Access: AccessRead, Addr: addr}
	}
	return r.word((addr - r.Start) / 8), nil
}

// PeekRange reads len(out) consecutive words starting at addr with a
// single region lookup (monitoring backdoor, the batched Peek the guest
// capture path uses). The range must lie inside one region.
func (m *Memory) PeekRange(addr uint64, out []uint64) error {
	if addr%8 != 0 {
		return &Fault{Kind: FaultUnaligned, Access: AccessRead, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil || addr+uint64(len(out))*8 > r.End() {
		return &Fault{Kind: FaultUnmapped, Access: AccessRead, Addr: addr}
	}
	i := (addr - r.Start) / 8
	for n := 0; n < len(out); {
		p := r.pages[i>>pageShift]
		n += copy(out[n:], p[i&pageMask:])
		i = (i &^ pageMask) + pageWords
	}
	return nil
}

// PokeRange writes len(vals) consecutive words starting at addr with a
// single region lookup (the batched Poke guest-input staging uses). The
// range must lie inside one region; on error nothing is written.
func (m *Memory) PokeRange(addr uint64, vals []uint64) error {
	if addr%8 != 0 {
		return &Fault{Kind: FaultUnaligned, Access: AccessWrite, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil || addr+uint64(len(vals))*8 > r.End() {
		return &Fault{Kind: FaultUnmapped, Access: AccessWrite, Addr: addr}
	}
	i := (addr - r.Start) / 8
	for n := 0; n < len(vals); {
		p := r.writablePage(i >> pageShift)
		n += copy(p[i&pageMask:], vals[n:])
		i = (i &^ pageMask) + pageWords
	}
	return nil
}

// Snapshot copies the full contents of every region, keyed by region name.
//
// Deprecated: Snapshot/Restore predate the copy-on-write Checkpoint API
// and cost a full word copy of every region. Production paths use
// Checkpoint/RestoreCheckpoint (the campaign checkpoint pool) and
// Mark/Rollback (live recovery); the flat pair remains only as an
// independently implemented oracle for their equivalence tests.
func (m *Memory) Snapshot() map[string][]uint64 {
	snap := make(map[string][]uint64, len(m.regions))
	for _, r := range m.regions {
		words := make([]uint64, r.Size/8)
		for i, p := range r.pages {
			copy(words[i*pageWords:], p)
		}
		snap[r.Name] = words
	}
	return snap
}

// Restore reinstates a snapshot taken from the same layout. Pages are
// rebuilt fresh so checkpointed pages shared with other machines are never
// written in place.
//
// Deprecated: see Snapshot.
func (m *Memory) Restore(snap map[string][]uint64) error {
	m.endEpoch()
	m.InvalidateTLB()
	m.lastCP = nil // pages are rebuilt fresh below; no checkpoint derivation
	for _, r := range m.regions {
		r.dirty = r.dirty[:0]
		words, ok := snap[r.Name]
		if !ok {
			return fmt.Errorf("mem: snapshot missing region %q", r.Name)
		}
		if uint64(len(words)) != r.Size/8 {
			return fmt.Errorf("mem: snapshot size mismatch for region %q", r.Name)
		}
		pages := newPages(r.Size / 8)
		for i, p := range pages {
			copy(p, words[i*pageWords:])
		}
		r.pages = pages
		r.state = make([]pageState, len(pages))
	}
	return nil
}

// Checkpoint is an immutable copy-on-write image of a Memory's full
// contents, with every page's content hash and their XOR fold. Each
// region's page table is split into chunks of chunkPages page pointers
// and their hashes, and consecutive checkpoints share every chunk their
// pages did not change in: taking one copies the previous checkpoint's
// list of chunk pointers, clones only the chunks that hold pages written
// since, and hashes only those pages. Pages are only duplicated when
// either side writes them afterwards. A Checkpoint may be restored into
// any number of machines with the same layout, concurrently — neither
// its chunks nor the pages they hold are ever written in place.
type Checkpoint struct {
	regions []cpRegion // in the Memory's address order
	fold    uint64     // XOR of every page hash
}

// cpRegion is one region's page table in a Checkpoint.
type cpRegion struct {
	name   string
	size   uint64 // bytes, as Region.Size
	chunks []*cpChunk
}

// Checkpoint chunk geometry: 16 pages (8 KiB of memory) per chunk keeps a
// chunk clone at 256 bytes and a chunk-pointer list at 1/16 the length of
// the page table it stands for.
const (
	chunkShift = 4
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

// cpChunk is a run of chunkPages page slots of one region (the region's
// last chunk may use fewer) with each page's hash. A page is held by its
// backing array (pageArray); the region's page table restores its length.
// Immutable once its checkpoint is returned.
type cpChunk struct {
	pages  [chunkPages]*[pageWords]uint64
	hashes [chunkPages]uint64
}

// Checkpoint captures the current contents. All live pages become shared:
// subsequent writes through this Memory copy the touched page first.
//
// When the memory derives from a checkpoint (lastCP), only the pages
// journaled dirty since can differ from it, so the new image is lastCP's
// with those pages' chunks cloned and updated, and its fold is lastCP's
// with those pages rehashed. Otherwise every page is hashed into fresh
// chunks.
func (m *Memory) Checkpoint() *Checkpoint {
	m.endEpoch()
	// Every page becomes shared, so any armed page fast paths (which are
	// only ever installed over private pages) must be dropped: a write
	// through a stale page pointer would mutate the checkpoint image.
	m.InvalidateTLB()
	prev := m.lastCP
	cp := &Checkpoint{regions: make([]cpRegion, len(m.regions))}
	if prev != nil {
		cp.fold = prev.fold
	}
	for i, r := range m.regions {
		rs := regionHashSeed(r.Name)
		cr := &cp.regions[i]
		*cr = cpRegion{name: r.Name, size: r.Size}
		if prev == nil {
			cr.chunks = make([]*cpChunk, (len(r.pages)+chunkMask)>>chunkShift)
			for c := range cr.chunks {
				cr.chunks[c] = new(cpChunk)
			}
			for p, pg := range r.pages {
				h := pageHash(pageHashSeed(rs, p), pg)
				c := cr.chunks[p>>chunkShift]
				c.pages[p&chunkMask], c.hashes[p&chunkMask] = pageArray(pg), h
				cp.fold ^= h
				r.state[p] = pageShared
			}
		} else {
			// The journal holds exactly the pages that are not shared, each
			// once; every other slot already holds prev's page.
			pr := &prev.regions[i]
			cr.chunks = pr.chunks
			if len(r.dirty) > 0 {
				cr.chunks = append([]*cpChunk(nil), pr.chunks...)
			}
			for _, p := range r.dirty {
				c := cr.chunks[p>>chunkShift]
				if c == pr.chunks[p>>chunkShift] {
					clone := *c
					c = &clone
					cr.chunks[p>>chunkShift] = c
				}
				h := pageHash(pageHashSeed(rs, int(p)), r.pages[p])
				cp.fold ^= c.hashes[p&chunkMask] ^ h
				c.pages[p&chunkMask], c.hashes[p&chunkMask] = pageArray(r.pages[p]), h
				r.state[p] = pageShared
			}
		}
		r.dirty = r.dirty[:0]
	}
	m.lastCP = cp // every live page now matches cp and is shared
	return cp
}

// RestoreCheckpoint reinstates a Checkpoint taken from the same layout.
// The restored pages are shared: the first write to each copies it. On a
// layout mismatch it returns an error and changes nothing.
//
// When the memory derives from a checkpoint (lastCP), the restore first
// reverts the pages journaled dirty since — cowPage is the one funnel
// that repoints a page between boundaries — to lastCP's image, then
// reinstalls the pages of only the chunks cp does not share with lastCP.
// Its cost is the touched page set plus the chunks the two images differ
// in, instead of the whole machine; restoring lastCP itself is the case
// with no differing chunk. Only a memory that derives from no checkpoint
// walks every page.
func (m *Memory) RestoreCheckpoint(cp *Checkpoint) error {
	if err := m.checkLayout(cp); err != nil {
		return err
	}
	m.endEpoch()
	m.InvalidateTLB()
	prev := m.lastCP
	for i, r := range m.regions {
		if prev == nil {
			// Pages private to this region are displaced by the restored
			// image and referenced by nothing else — recycle them for
			// future COW copies instead of letting every restore
			// regenerate garbage.
			for p, old := range r.pages {
				if r.state[p] != pageShared {
					r.recycle(old)
				}
				r.state[p] = pageShared
			}
		} else {
			pr := &prev.regions[i]
			for _, p := range r.dirty {
				// Journaled pages are exactly the unshared ones: recycle the
				// displaced private copy, reinstate lastCP's page, re-share.
				if r.state[p] != pageShared {
					r.recycle(r.pages[p])
				}
				r.pages[p] = pr.chunks[p>>chunkShift].pages[p&chunkMask][:len(r.pages[p])]
				r.state[p] = pageShared
			}
		}
		r.dirty = r.dirty[:0]
		for c, ch := range cp.regions[i].chunks {
			if prev == nil || ch != prev.regions[i].chunks[c] {
				pages := r.pages[c<<chunkShift:]
				for k := range min(chunkPages, len(pages)) {
					pages[k] = ch.pages[k][:len(pages[k])]
				}
			}
		}
	}
	m.lastCP = cp
	return nil
}

// checkLayout reports whether cp was taken from a memory with this one's
// regions: the same names, in the same order, with the same sizes (hence
// the same page counts).
func (m *Memory) checkLayout(cp *Checkpoint) error {
	if len(cp.regions) != len(m.regions) {
		return fmt.Errorf("mem: checkpoint has %d regions, memory has %d", len(cp.regions), len(m.regions))
	}
	for i, r := range m.regions {
		if cp.regions[i].name != r.Name {
			return fmt.Errorf("mem: checkpoint missing region %q", r.Name)
		}
		if cp.regions[i].size != r.Size {
			return fmt.Errorf("mem: checkpoint size mismatch for region %q", r.Name)
		}
	}
	return nil
}

// ErrNoEpoch is returned by Rollback when no undo epoch is open.
var ErrNoEpoch = errors.New("mem: rollback without an open undo epoch")

// Mark opens a one-level undo epoch: until the epoch ends, Rollback
// returns memory to exactly its contents at this call, as often as asked.
// The next Mark, Checkpoint, RestoreCheckpoint, Map or Restore ends the
// epoch and keeps the contents; Mark then opens a fresh one.
//
// Mark write-protects every private page (pageGuarded), so cowPage copies
// it before its first write and journals the pre-image for Rollback;
// shared pages are write-protected already. Private pages are few: after a
// checkpoint boundary they are the dirty journal's pages, and when an
// epoch is open they are exactly the pages its undo log copied. Mark thus
// costs the pages written since, not the size of memory, and allocates
// nothing once the undo logs and free lists have grown to the working set.
// Only right after Map or Restore, when any page may be private, does it
// walk every page.
//
// Like Checkpoint, Mark drops every D-TLB entry.
func (m *Memory) Mark() {
	m.InvalidateTLB()
	for _, r := range m.regions {
		switch {
		case r.marked:
			for _, u := range r.undo {
				r.state[u.p] = pageGuarded
			}
			r.commit()
		case m.lastCP != nil:
			for _, p := range r.dirty {
				if r.state[p] == pagePrivate {
					r.state[p] = pageGuarded
				}
			}
		default:
			for p, st := range r.state {
				if st == pagePrivate {
					r.state[p] = pageGuarded
				}
			}
		}
		r.marked = true
	}
	m.marked = true
}

// Rollback returns memory to its contents at the open epoch's Mark and
// keeps the epoch open. It reinstates the journaled pre-image of every
// page written since, recycles the copies those writes made, and drops
// every D-TLB entry. It fails with ErrNoEpoch when no epoch is open.
func (m *Memory) Rollback() error {
	if !m.marked {
		return ErrNoEpoch
	}
	m.InvalidateTLB()
	for _, r := range m.regions {
		reshared := 0
		for _, u := range r.undo {
			r.recycle(r.pages[u.p])
			r.pages[u.p] = u.page
			r.state[u.p] = u.state
			if u.state == pageShared {
				reshared++
			}
		}
		// cowPage journaled the epoch's copies of shared pages at the tail
		// of dirty, in undo order; those pages are shared again.
		r.dirty = r.dirty[:len(r.dirty)-reshared]
		r.undo = r.undo[:0]
	}
	return nil
}

// endEpoch ends an open undo epoch, keeping the current contents. Guarded
// pages the epoch never wrote keep their state: Checkpoint,
// RestoreCheckpoint and Restore share or replace every unshared page right
// after, and after Map such a page merely costs one unneeded copy.
func (m *Memory) endEpoch() {
	if !m.marked {
		return
	}
	for _, r := range m.regions {
		r.commit()
	}
	m.marked = false
}

// commit ends the region's epoch: the guarded pre-images its writes
// displaced are referenced by nothing now and join the free list.
func (r *Region) commit() {
	for _, u := range r.undo {
		if u.state == pageGuarded {
			r.recycle(u.page)
		}
	}
	r.undo = r.undo[:0]
	r.marked = false
}

// Zero clears a region's contents. Pages are cleared in place through the
// copy-on-write path (shared and guarded pages are privatized first),
// never repointed, so cached page translations in any owning Memory's
// D-TLB stay valid.
func (r *Region) Zero() {
	for p := range r.pages {
		pg := r.writablePage(uint64(p))
		for i := range pg {
			pg[i] = 0
		}
	}
}
