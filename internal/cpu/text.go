package cpu

import (
	"fmt"
	"sync/atomic"

	"xentry/internal/isa"
)

// Segment is a contiguous linked text segment, the only instruction memory
// a CPU fetches from. The hypervisor loader concatenates every handler
// program into one segment so that a corrupted RIP can land on *another*
// handler's valid instruction — the
// valid-but-incorrect control flow the paper's VM transition detection
// targets — as well as off-boundary (#UD) or outside text entirely (#PF).
type Segment struct {
	// Base is the segment's first virtual address.
	Base   uint64
	instrs []isa.Instr
	// regs[i] holds instrs[i]'s register read and write sets, computed
	// once at link time for the fault injector's per-instruction
	// activation tests (RegsAt).
	regs []regUse

	// trans caches the segment's direct-threaded translation (threaded.go),
	// built on first untraced Run and shared by every CPU executing this
	// text. The cached value carries the translator version that produced
	// it; threadedCode revalidates and retranslates on mismatch.
	trans atomic.Pointer[translation]
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 {
	return s.Base + uint64(len(s.instrs))*isa.InstrBytes
}

// Len returns the number of instructions in the segment.
func (s *Segment) Len() int { return len(s.instrs) }

// FetchInstr returns a copy of the instruction at addr, classifying a
// fetch outside the segment or off an instruction boundary.
func (s *Segment) FetchInstr(addr uint64) (isa.Instr, FetchResult) {
	if addr < s.Base || addr >= s.End() {
		return isa.Instr{}, FetchUnmapped
	}
	off := addr - s.Base
	if off%isa.InstrBytes != 0 {
		return isa.Instr{}, FetchMisaligned
	}
	return s.instrs[off/isa.InstrBytes], FetchOK
}

// FetchPtr is FetchInstr without the instruction copy: it returns a pointer
// into the segment's instruction slice. Instructions are immutable after
// linking, so the pointee must be treated as read-only. The run loops use
// it so each fetch costs a bounds check and a pointer, not a struct copy.
func (s *Segment) FetchPtr(addr uint64) (*isa.Instr, FetchResult) {
	if addr < s.Base || addr >= s.End() {
		return nil, FetchUnmapped
	}
	off := addr - s.Base
	if off%isa.InstrBytes != 0 {
		return nil, FetchMisaligned
	}
	return &s.instrs[off/isa.InstrBytes], FetchOK
}

// InstrAt returns the instruction at addr for inspection (no fetch checks).
func (s *Segment) InstrAt(addr uint64) (isa.Instr, bool) {
	in, fr := s.FetchInstr(addr)
	return in, fr == FetchOK
}

// regUse is one instruction's register read and write sets.
type regUse struct {
	reads, writes isa.RegSet
}

// RegsAt returns the registers the instruction at addr reads and writes
// (isa.Instr.Reads and Writes, precomputed by Link), and false when addr
// is outside the segment or off an instruction boundary.
func (s *Segment) RegsAt(addr uint64) (reads, writes isa.RegSet, ok bool) {
	off := addr - s.Base
	idx := off / isa.InstrBytes
	if idx >= uint64(len(s.regs)) || off%isa.InstrBytes != 0 {
		return 0, 0, false
	}
	u := s.regs[idx]
	return u.reads, u.writes, true
}

// Loader links a set of programs into a single Segment with a shared
// symbol table (program name → entry address), resolving cross-program
// calls in two passes.
type Loader struct {
	base  uint64
	progs []*isa.Program
}

// NewLoader starts a loader placing text at base.
func NewLoader(base uint64) *Loader { return &Loader{base: base} }

// Add queues a program for linking.
func (l *Loader) Add(p *isa.Program) *Loader {
	l.progs = append(l.progs, p)
	return l
}

// Link lays out all programs contiguously, resolves symbols, and returns
// the executable segment, the symbol table, and the exception-fixup table
// (protected instruction address → fixup resume address).
func (l *Loader) Link() (*Segment, map[string]uint64, map[uint64]uint64, error) {
	symtab := make(map[string]uint64, len(l.progs))
	addr := l.base
	for _, p := range l.progs {
		if _, dup := symtab[p.Name]; dup {
			return nil, nil, nil, fmt.Errorf("cpu: duplicate program %q", p.Name)
		}
		symtab[p.Name] = addr
		addr += p.Size()
	}
	seg := &Segment{Base: l.base}
	fixups := make(map[uint64]uint64)
	for _, p := range l.progs {
		// Link a copy so the source program stays relocatable and can be
		// linked again (tests and repeated machine builds share programs).
		clone := &isa.Program{Name: p.Name, Instrs: append([]isa.Instr(nil), p.Instrs...)}
		if err := clone.Link(symtab[p.Name], symtab); err != nil {
			return nil, nil, nil, err
		}
		for _, f := range p.Fixups {
			fixups[clone.AddrOf(f.Idx)] = clone.AddrOf(f.Target)
		}
		seg.instrs = append(seg.instrs, clone.Instrs...)
	}
	seg.regs = make([]regUse, len(seg.instrs))
	for i := range seg.instrs {
		seg.regs[i] = regUse{seg.instrs[i].Reads(), seg.instrs[i].Writes()}
	}
	return seg, symtab, fixups, nil
}
