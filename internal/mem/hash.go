package mem

// Per-page content hashing for convergence fingerprints (DESIGN.md §10).
//
// Every checkpoint stores one 64-bit hash per page next to the page
// pointer, in the chunks its page table is split into, plus the XOR fold
// of every page hash, which summarizes the whole image. Both are computed
// when the checkpoint is taken and never change. They are cheap to keep
// incrementally because checkpoints share pages copy-on-write: a page
// object a checkpoint holds is only ever installed in a slot marked
// shared, so it is never mutated in place (stores replace the pointer via
// cowPage) and never recycled onto the free list (RestoreCheckpoint and
// Rollback recycle only slots that are not shared, and an undo epoch's
// commit recycles only the guarded pre-images, which no checkpoint ever
// held; Checkpoint and RestoreCheckpoint mark every live page shared, and
// Rollback reinstates a shared pre-image as shared). So pointer equality
// between two images implies content equality, and the hash can be reused
// without touching the page: a new checkpoint rehashes only the pages
// journaled dirty since the previous one, and a fold of live memory
// against the checkpoint it derives from rehashes only those pages too.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashMix is the splitmix64 finalizer: a cheap full-avalanche permutation
// so single-bit input differences flip about half the output bits, which
// the soundness fuzz target (FuzzFingerprintSoundness) leans on.
func hashMix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// regionHashSeed derives a region's hash seed from its name rather than
// its base address, so a checkpoint (which stores no addresses) can be
// hashed without the owning Memory.
func regionHashSeed(name string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return h
}

// pageHashSeed positions a page within the fold: without a per-index
// seed, swapping the contents of two pages would XOR-cancel.
func pageHashSeed(regionSeed uint64, page int) uint64 {
	return hashMix(regionSeed + uint64(page)*0x9e3779b97f4a7c15)
}

// pageHash hashes one page word-wide (FNV-1a over uint64s, splitmix
// finalizer). Word-wide keeps it at one multiply per 8 bytes, matching
// the word-granular store path that dirties pages in the first place.
func pageHash(seed uint64, words []uint64) uint64 {
	h := seed
	for _, w := range words {
		h ^= w
		h *= fnvPrime64
	}
	return hashMix(h)
}

// Fold returns the XOR fold of every page hash in the image.
func (cp *Checkpoint) Fold() uint64 { return cp.fold }

// TLBHash summarizes the D-TLB's *incoherent* entries — armed slots whose
// tag no longer resolves to the very page object the entry caches. In a
// fault-free machine that set is always empty: installPage only arms a
// slot over the private current page of the tag's own window, cowPage
// never repoints a private page, and every repointing, sharing or
// guarding boundary (Map, Checkpoint, RestoreCheckpoint, Restore, Mark,
// Rollback) invalidates the whole cache — so the only way an entry turns
// incoherent is FlipTLBTag, the injected soft error. Hashing the poison
// alone (slot and tag) makes the value independent of cache warmth and of
// the checkpoint interval: a warm-but-coherent TLB is observationally
// identical to a cold one and both hash to zero, which is what lets the
// convergence fingerprint fold this in without tying outcomes to K.
func (m *Memory) TLBHash() uint64 {
	h := uint64(fnvOffset64)
	poisoned := false
	for i := range m.tlb {
		e := &m.tlb[i]
		if e.page == nil || m.tlbCoherent(e) {
			continue
		}
		poisoned = true
		h ^= uint64(i)
		h *= fnvPrime64
		h ^= e.tag
		h *= fnvPrime64
	}
	if !poisoned {
		return 0
	}
	return hashMix(h)
}

// tlbCoherent reports whether an armed entry still caches the current
// private page of its tag's 512-byte window. lookupSlow keeps the entry's
// region half consistent with its page half (a region refill drops the
// page), so the tag resolves within e.region or not at all.
func (m *Memory) tlbCoherent(e *tlbEntry) bool {
	r := e.region
	if e.tag >= 1<<(64-tlbByteShift) {
		// The tag's top bits shift out of the address computation below, so
		// check them explicitly: refills only ever store addr>>tlbByteShift,
		// hence an overflowing tag is corrupted even when the truncated
		// address would still resolve.
		return false
	}
	addr := e.tag << tlbByteShift
	if r == nil || addr < r.Start || addr-r.Start >= r.Size {
		return false
	}
	p := (addr - r.Start) >> tlbByteShift
	pg := r.pages[p]
	return r.state[p] == pagePrivate && len(pg) == pageWords && (*[pageWords]uint64)(pg) == e.page
}

// FoldFrom hashes the Memory's live pages without taking a checkpoint.
// The caller must own the Memory (workers hash their private machine
// against the pool checkpoint they restored from; the shared base itself
// is only ever read).
//
// When the memory derives from base (base is the checkpoint it last took
// or restored), only the pages journaled dirty since can differ from it,
// so the fold is base's with those pages rehashed: the cost is the
// touched page set. That relies on the journal holding each page once —
// a duplicate would XOR its change out again. A nil or any other base
// hashes every page.
func (m *Memory) FoldFrom(base *Checkpoint) uint64 {
	var fold uint64
	if base == nil || base != m.lastCP {
		for _, r := range m.regions {
			rs := regionHashSeed(r.Name)
			for p, pg := range r.pages {
				fold ^= pageHash(pageHashSeed(rs, p), pg)
			}
		}
		return fold
	}
	fold = base.fold
	for i, r := range m.regions {
		rs := regionHashSeed(r.Name)
		chunks := base.regions[i].chunks
		for _, p := range r.dirty {
			fold ^= chunks[p>>chunkShift].hashes[p&chunkMask] ^
				pageHash(pageHashSeed(rs, int(p)), r.pages[p])
		}
	}
	return fold
}
