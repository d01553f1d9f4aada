// Package pagetable implements the simulator's 4-level radix page tables.
//
// The same structure backs every table in the stack: L2 guest page tables
// (GPT2), L1 page tables (GPT1), shadow page tables (SPT12), and extended
// page tables (EPT01/EPT12/EPT02). Tables are built from frames drawn from a
// mem.Allocator, walks perform real radix traversals, and every page-table-
// entry store can be observed through the OnWrite hook — which is how the
// virtualization layers above model write-protected guest page tables (each
// store traps to the hypervisor, the mechanism at the heart of shadow
// paging's world-switch arithmetic).
package pagetable

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/mem"
)

// Flags are PTE permission/status bits.
type Flags uint16

const (
	Present Flags = 1 << iota
	Writable
	User
	Global
	Accessed
	Dirty
	NoExec
	// Large marks a 2 MiB leaf installed at level 2 (a huge page).
	Large
)

// LargePageSpan is the VA span of a level-2 (2 MiB) leaf.
const LargePageSpan = arch.EntriesPerTable * arch.PageSize

// Has reports whether all bits in q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

func (f Flags) String() string {
	s := ""
	add := func(b Flags, r string) {
		if f.Has(b) {
			s += r
		} else {
			s += "-"
		}
	}
	add(Present, "P")
	add(Writable, "W")
	add(User, "U")
	add(Global, "G")
	add(Accessed, "A")
	add(Dirty, "D")
	add(NoExec, "X")
	return s
}

// Entry is one page-table entry: a frame number plus flags. For non-leaf
// entries the PFN names the next-level table frame.
type Entry struct {
	PFN   arch.PFN
	Flags Flags
}

// WriteEvent describes one PTE store performed against the table.
type WriteEvent struct {
	Level int     // 1 = leaf PTE, up to arch.PTLevels = root
	VA    arch.VA // address being mapped/modified
	Leaf  bool    // store to the final translation entry
	Entry Entry   // new contents
}

// FaultKind classifies a failed walk.
type FaultKind uint8

const (
	FaultNone       FaultKind = iota
	FaultNotPresent           // entry absent at Fault.Level
	FaultProtection           // write to a read-only page
	FaultPrivilege            // user access to a supervisor page
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNotPresent:
		return "not-present"
	case FaultProtection:
		return "protection"
	case FaultPrivilege:
		return "privilege"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault describes a failed walk.
type Fault struct {
	Kind  FaultKind
	Level int // level at which the walk failed (0 for leaf permission faults)
	VA    arch.VA
	Write bool
	User  bool
}

func (f *Fault) Error() string {
	return fmt.Sprintf("pagetable: %s fault at %#x (level %d, write=%v, user=%v)",
		f.Kind, f.VA, f.Level, f.Write, f.User)
}

// Stats counts table activity.
type Stats struct {
	Maps      int64
	Unmaps    int64
	Protects  int64
	Walks     int64
	Faults    int64
	PTEWrites int64
	Tables    int64 // live table frames, including the root
}

// table is one page-table frame. pte holds the entries packed as x86 packs
// them, PFN<<pfnShift | Flags; kid[i] is the tabs slot of the next-level
// table that a present non-Large entry i links to (0, the root's slot, means
// none). The frame holds no pointer, so the garbage collector never scans
// it, and descending is an array index, not a hash probe.
type table struct {
	pte [arch.EntriesPerTable]uint64
	kid [arch.EntriesPerTable]int32
}

// pfnShift places the PFN above the 16 flag bits of a packed entry.
const pfnShift = 16

// maxPFN bounds the PFNs a packed entry can hold: 64 bits less the flags.
const maxPFN = arch.PFN(1) << (64 - pfnShift)

// pack folds an entry into its in-frame form. It panics rather than
// truncating a PFN that does not fit.
func pack(e Entry) uint64 {
	if e.PFN >= maxPFN {
		panic(fmt.Sprintf("pagetable: PFN %#x out of packable range", e.PFN))
	}
	return uint64(e.PFN)<<pfnShift | uint64(e.Flags)
}

// unpack recovers an entry from its in-frame form.
func unpack(p uint64) Entry {
	return Entry{PFN: arch.PFN(p >> pfnShift), Flags: Flags(p)}
}

// entry returns entry i of t.
func (t *table) entry(i int) Entry { return unpack(t.pte[i]) }

// tablePool recycles table frames (6 KiB each) across page tables and
// engines. Fork/exit-heavy workloads churn thousands of frames; recycling
// them removes the dominant allocation (and GC pressure) of the simulator's
// memory hot path. Frames are zeroed when returned, so a pooled frame is
// indistinguishable from a fresh one and determinism is unaffected.
var tablePool = sync.Pool{New: func() any { return new(table) }}

func newTable() *table { return tablePool.Get().(*table) }

func putTable(t *table) {
	*t = table{}
	tablePool.Put(t)
}

// PageTable is a 4-level radix translation structure.
type PageTable struct {
	alloc *mem.Allocator
	root  arch.PFN

	// tabs holds every live table frame: slot 0 is the root, and each
	// table is reached from its parent through kid. Slots are appended as
	// tables are created and are never reused before Destroy.
	tabs []*table

	// OnWrite, when non-nil, observes every PTE store (including stores
	// creating intermediate tables). Virtualization layers use it to
	// charge write-protection traps.
	OnWrite func(WriteEvent)

	stats Stats
}

// New creates an empty page table whose table frames come from alloc.
func New(alloc *mem.Allocator) (*PageTable, error) {
	root, err := alloc.Alloc()
	if err != nil {
		return nil, err
	}
	pt := &PageTable{
		alloc: alloc,
		root:  root,
		tabs:  []*table{newTable()},
	}
	pt.stats.Tables = 1
	return pt, nil
}

// Root returns the root table frame (the CR3/EPTP value).
func (pt *PageTable) Root() arch.PFN { return pt.root }

// Stats returns a copy of the activity counters.
func (pt *PageTable) Stats() Stats { return pt.stats }

func (pt *PageTable) write(level int, va arch.VA, leaf bool, t *table, idx int, e Entry) {
	t.pte[idx] = pack(e)
	pt.stats.PTEWrites++
	if pt.OnWrite != nil {
		pt.OnWrite(WriteEvent{Level: level, VA: va, Leaf: leaf, Entry: e})
	}
}

// descend returns the table below entry idx of t, allocating and linking a
// fresh one (one PTE store at level) when the entry is absent. It reports
// the number of PTE stores performed. A 2 MiB leaf at idx has no table
// below it, so descending through one panics.
func (pt *PageTable) descend(t *table, level int, va arch.VA, idx int) (*table, int, error) {
	if k := t.kid[idx]; k != 0 {
		return pt.tabs[k], 0, nil
	}
	if Flags(t.pte[idx]).Has(Present) {
		panic(fmt.Sprintf("pagetable: descent at %#x (level %d) through a 2 MiB leaf", va, level))
	}
	sub, err := pt.alloc.Alloc()
	if err != nil {
		return nil, 0, err
	}
	nt := newTable()
	t.kid[idx] = int32(len(pt.tabs))
	pt.tabs = append(pt.tabs, nt)
	pt.stats.Tables++
	pt.write(level, va, false, t, idx, Entry{PFN: sub, Flags: Present | Writable | User})
	return nt, 1, nil
}

// Map installs a translation va → pfn with the given flags, creating any
// missing intermediate tables (marked Present|Writable|User). It returns the
// number of PTE stores performed — the quantity that determines how many
// write-protection traps a shadowed guest pays.
func (pt *PageTable) Map(va arch.VA, pfn arch.PFN, flags Flags) (writes int, err error) {
	if !va.Canonical() {
		return 0, fmt.Errorf("pagetable: non-canonical address %#x", va)
	}
	t := pt.tabs[0]
	for level := arch.PTLevels; level > 1; level-- {
		var w int
		t, w, err = pt.descend(t, level, va, va.Index(level))
		writes += w
		if err != nil {
			return writes, err
		}
	}
	pt.write(1, va, true, t, va.Index(1), Entry{PFN: pfn, Flags: flags | Present})
	writes++
	pt.stats.Maps++
	return writes, nil
}

// MapLarge installs a 2 MiB translation at level 2 for the region containing
// va (aligned down to LargePageSpan), creating missing upper tables. pfn
// names the first frame of the 512-frame block. It returns the number of PTE
// stores performed.
func (pt *PageTable) MapLarge(va arch.VA, pfn arch.PFN, flags Flags) (writes int, err error) {
	if !va.Canonical() {
		return 0, fmt.Errorf("pagetable: non-canonical address %#x", va)
	}
	va = va &^ (LargePageSpan - 1)
	t := pt.tabs[0]
	for level := arch.PTLevels; level > 2; level-- {
		var w int
		t, w, err = pt.descend(t, level, va, va.Index(level))
		writes += w
		if err != nil {
			return writes, err
		}
	}
	idx := va.Index(2)
	if t.kid[idx] != 0 {
		return writes, fmt.Errorf("pagetable: 4K table already present at %#x; split required", va)
	}
	pt.write(2, va, true, t, idx, Entry{PFN: pfn, Flags: flags | Present | Large})
	writes++
	pt.stats.Maps++
	return writes, nil
}

// upper descends from the root to the level-2 table covering va, or returns
// nil when no such table exists.
func (pt *PageTable) upper(va arch.VA) *table {
	t := pt.tabs[0]
	for level := arch.PTLevels; level > 2; level-- {
		k := t.kid[va.Index(level)]
		if k == 0 {
			return nil
		}
		t = pt.tabs[k]
	}
	return t
}

// LookupLarge peeks at the level-2 entry covering va, reporting whether a
// huge mapping is installed there.
func (pt *PageTable) LookupLarge(va arch.VA) (Entry, bool) {
	t := pt.upper(va)
	if t == nil {
		return Entry{}, false
	}
	e := t.entry(va.Index(2))
	if !e.Flags.Has(Present) || !e.Flags.Has(Large) {
		return Entry{}, false
	}
	return e, true
}

// UnmapLarge clears the level-2 huge entry covering va. It reports whether
// one was present.
func (pt *PageTable) UnmapLarge(va arch.VA) bool {
	t := pt.upper(va)
	if t == nil {
		return false
	}
	idx := va.Index(2)
	if f := Flags(t.pte[idx]); !f.Has(Present) || !f.Has(Large) {
		return false
	}
	pt.write(2, va&^(LargePageSpan-1), true, t, idx, Entry{})
	pt.stats.Unmaps++
	return true
}

// Unmap clears the leaf entry for va. Intermediate tables are retained (as
// real kernels do). It reports whether a mapping was present.
func (pt *PageTable) Unmap(va arch.VA) bool {
	t, idx, ok := pt.leaf(va)
	if !ok || !Flags(t.pte[idx]).Has(Present) {
		return false
	}
	pt.write(1, va, true, t, idx, Entry{})
	pt.stats.Unmaps++
	return true
}

// Protect replaces the leaf flags for va (keeping the PFN), e.g. to
// write-protect a page for COW or guest-page-table shadowing. It reports
// whether the mapping existed.
func (pt *PageTable) Protect(va arch.VA, flags Flags) bool {
	t, idx, ok := pt.leaf(va)
	if !ok || !Flags(t.pte[idx]).Has(Present) {
		return false
	}
	e := t.entry(idx)
	e.Flags = flags | Present
	pt.write(1, va, true, t, idx, e)
	pt.stats.Protects++
	return true
}

// leaf walks to the leaf table without permission checks or A/D updates.
// Large (level-2) leaves are not 4K leaves; use LookupLarge for those.
func (pt *PageTable) leaf(va arch.VA) (*table, int, bool) {
	t := pt.tabs[0]
	for level := arch.PTLevels; level > 1; level-- {
		k := t.kid[va.Index(level)]
		if k == 0 {
			return nil, 0, false
		}
		t = pt.tabs[k]
	}
	return t, va.Index(1), true
}

// Lookup peeks at the leaf entry for va without touching A/D bits or stats.
func (pt *PageTable) Lookup(va arch.VA) (Entry, bool) {
	t, idx, ok := pt.leaf(va)
	if !ok {
		return Entry{}, false
	}
	e := t.entry(idx)
	if !e.Flags.Has(Present) {
		return Entry{}, false
	}
	return e, true
}

// Walk performs an architectural walk for an access at va, applying
// permission checks and setting Accessed/Dirty bits. On success it returns
// the leaf entry and the number of levels traversed; on failure it returns a
// Fault describing the page fault the access would raise.
func (pt *PageTable) Walk(va arch.VA, write, user bool) (Entry, int, *Fault) {
	pt.stats.Walks++
	if !va.Canonical() {
		pt.stats.Faults++
		return Entry{}, 0, &Fault{Kind: FaultNotPresent, Level: arch.PTLevels, VA: va, Write: write, User: user}
	}
	t := pt.tabs[0]
	levels := 0
	for level := arch.PTLevels; level > 1; level-- {
		levels++
		idx := va.Index(level)
		if k := t.kid[idx]; k != 0 {
			t = pt.tabs[k]
			continue
		}
		e := t.entry(idx)
		if !e.Flags.Has(Present) {
			pt.stats.Faults++
			return Entry{}, levels, &Fault{Kind: FaultNotPresent, Level: level, VA: va, Write: write, User: user}
		}
		// A present entry with no table below is a 2 MiB leaf at level 2.
		switch {
		case user && !e.Flags.Has(User):
			pt.stats.Faults++
			return Entry{}, levels, &Fault{Kind: FaultPrivilege, VA: va, Write: write, User: user}
		case write && !e.Flags.Has(Writable):
			pt.stats.Faults++
			return Entry{}, levels, &Fault{Kind: FaultProtection, VA: va, Write: write, User: user}
		}
		return t.setAD(idx, e, write), levels, nil
	}
	levels++
	idx := va.Index(1)
	e := t.entry(idx)
	switch {
	case !e.Flags.Has(Present):
		pt.stats.Faults++
		return Entry{}, levels, &Fault{Kind: FaultNotPresent, Level: 1, VA: va, Write: write, User: user}
	case user && !e.Flags.Has(User):
		pt.stats.Faults++
		return Entry{}, levels, &Fault{Kind: FaultPrivilege, VA: va, Write: write, User: user}
	case write && !e.Flags.Has(Writable):
		pt.stats.Faults++
		return Entry{}, levels, &Fault{Kind: FaultProtection, VA: va, Write: write, User: user}
	}
	return t.setAD(idx, e, write), levels, nil
}

// setAD sets Accessed (and, for a write, Dirty) on leaf idx, whose current
// contents are e, and returns the updated entry. The store is silent:
// hardware A/D assists do not trap.
func (t *table) setAD(idx int, e Entry, write bool) Entry {
	e.Flags |= Accessed
	if write {
		e.Flags |= Dirty
	}
	t.pte[idx] = pack(e)
	return e
}

// Range calls fn for every present leaf mapping, in ascending VA order.
// Returning false from fn stops the iteration.
func (pt *PageTable) Range(fn func(va arch.VA, e Entry) bool) {
	pt.rangeFrom(pt.tabs[0], arch.PTLevels, 0, fn)
}

func (pt *PageTable) rangeFrom(t *table, level int, base arch.VA, fn func(arch.VA, Entry) bool) bool {
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(level-1))
	for i := 0; i < arch.EntriesPerTable; i++ {
		if !Flags(t.pte[i]).Has(Present) {
			continue
		}
		va := base + arch.VA(i)*span
		if k := t.kid[i]; k != 0 {
			if !pt.rangeFrom(pt.tabs[k], level-1, va, fn) {
				return false
			}
			continue
		}
		if !fn(va, t.entry(i)) {
			return false
		}
	}
	return true
}

// CountMapped returns the number of present leaf entries.
func (pt *PageTable) CountMapped() int {
	n := 0
	pt.Range(func(arch.VA, Entry) bool { n++; return true })
	return n
}

// Destroy releases every table frame back to the allocator, in TableFrames
// order. The allocator's free list is LIFO, so this order decides which
// frames the next allocations receive. The PageTable must not be used
// afterwards.
func (pt *PageTable) Destroy() error {
	frames := pt.TableFrames()
	if len(frames) != len(pt.tabs) {
		// Every table is linked from its parent (Unmap never clears
		// intermediate entries), so the walk must see them all; anything
		// else is a structural corruption.
		return fmt.Errorf("pagetable: Destroy reached %d of %d tables", len(frames), len(pt.tabs))
	}
	for _, pfn := range frames {
		if _, err := pt.alloc.Free(pfn); err != nil {
			return err
		}
	}
	for _, t := range pt.tabs {
		putTable(t)
	}
	pt.tabs = nil
	pt.stats.Tables = 0
	return nil
}

// TableFrames returns the PFNs of all live table frames (root included) in
// depth-first post-order from the root: each table after the tables below
// it, siblings in ascending VA order. Shadowing layers write-protect exactly
// these frames in the shadow structure to trap guest page-table stores.
func (pt *PageTable) TableFrames() []arch.PFN {
	out := pt.postOrder(pt.tabs[0], make([]arch.PFN, 0, len(pt.tabs)))
	return append(out, pt.root)
}

// postOrder appends the frames of the tables below t, each after its own
// subtree.
func (pt *PageTable) postOrder(t *table, out []arch.PFN) []arch.PFN {
	for i, k := range t.kid {
		if k != 0 {
			out = pt.postOrder(pt.tabs[k], out)
			out = append(out, arch.PFN(t.pte[i]>>pfnShift))
		}
	}
	return out
}
