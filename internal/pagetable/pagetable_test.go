package pagetable

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/mem"
)

func newPT(t *testing.T) *PageTable {
	t.Helper()
	pt, err := New(mem.NewAllocator("pt", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestMapWalkRoundTrip(t *testing.T) {
	pt := newPT(t)
	va := arch.VA(0x7f0000401000)
	if _, err := pt.Map(va, 42, Writable|User); err != nil {
		t.Fatal(err)
	}
	e, levels, fault := pt.Walk(va, false, true)
	if fault != nil {
		t.Fatalf("walk faulted: %v", fault)
	}
	if e.PFN != 42 {
		t.Fatalf("PFN = %d, want 42", e.PFN)
	}
	if levels != arch.PTLevels {
		t.Fatalf("levels = %d, want %d", levels, arch.PTLevels)
	}
}

func TestFirstMapWritesAllLevels(t *testing.T) {
	pt := newPT(t)
	writes, err := pt.Map(0x1000, 1, Writable|User)
	if err != nil {
		t.Fatal(err)
	}
	// Empty table: must create 3 intermediate entries + 1 leaf = 4 writes.
	// This count drives the paper's "n rounds of traps" arithmetic.
	if writes != arch.PTLevels {
		t.Fatalf("writes = %d, want %d", writes, arch.PTLevels)
	}
	// A neighbouring page in the same leaf table needs only 1 write.
	writes, err = pt.Map(0x2000, 2, Writable|User)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Fatalf("second map writes = %d, want 1", writes)
	}
}

func TestOnWriteHookSeesEveryStore(t *testing.T) {
	pt := newPT(t)
	var events []WriteEvent
	pt.OnWrite = func(ev WriteEvent) { events = append(events, ev) }
	if _, err := pt.Map(0x5000, 7, Writable|User); err != nil {
		t.Fatal(err)
	}
	if len(events) != arch.PTLevels {
		t.Fatalf("got %d events, want %d", len(events), arch.PTLevels)
	}
	// Events go root → leaf; only the last is a leaf store.
	for i, ev := range events {
		wantLevel := arch.PTLevels - i
		if ev.Level != wantLevel {
			t.Errorf("event %d level = %d, want %d", i, ev.Level, wantLevel)
		}
		if ev.Leaf != (wantLevel == 1) {
			t.Errorf("event %d leaf = %v at level %d", i, ev.Leaf, ev.Level)
		}
	}
}

func TestPermissionFaults(t *testing.T) {
	pt := newPT(t)
	roVA := arch.VA(0x10000)
	supVA := arch.VA(0x20000)
	if _, err := pt.Map(roVA, 1, User); err != nil { // read-only
		t.Fatal(err)
	}
	if _, err := pt.Map(supVA, 2, Writable); err != nil { // supervisor-only
		t.Fatal(err)
	}

	if _, _, fault := pt.Walk(roVA, true, true); fault == nil || fault.Kind != FaultProtection {
		t.Fatalf("write to RO page: fault = %v, want protection", fault)
	}
	if _, _, fault := pt.Walk(roVA, false, true); fault != nil {
		t.Fatalf("read of RO page faulted: %v", fault)
	}
	if _, _, fault := pt.Walk(supVA, false, true); fault == nil || fault.Kind != FaultPrivilege {
		t.Fatalf("user access to supervisor page: fault = %v, want privilege", fault)
	}
	if _, _, fault := pt.Walk(supVA, true, false); fault != nil {
		t.Fatalf("kernel write to supervisor page faulted: %v", fault)
	}
}

func TestNotPresentFaultLevels(t *testing.T) {
	pt := newPT(t)
	// Nothing mapped: fault at the root level.
	_, _, fault := pt.Walk(0x1000, false, false)
	if fault == nil || fault.Kind != FaultNotPresent || fault.Level != arch.PTLevels {
		t.Fatalf("fault = %+v, want not-present at level %d", fault, arch.PTLevels)
	}
	// Map a page, then probe a sibling in the same leaf table: fault level 1.
	if _, err := pt.Map(0x1000, 1, Writable); err != nil {
		t.Fatal(err)
	}
	_, _, fault = pt.Walk(0x2000, false, false)
	if fault == nil || fault.Kind != FaultNotPresent || fault.Level != 1 {
		t.Fatalf("fault = %+v, want not-present at level 1", fault)
	}
}

func TestAccessedDirtyBits(t *testing.T) {
	pt := newPT(t)
	va := arch.VA(0x3000)
	if _, err := pt.Map(va, 9, Writable|User); err != nil {
		t.Fatal(err)
	}
	e, _ := pt.Lookup(va)
	if e.Flags.Has(Accessed) || e.Flags.Has(Dirty) {
		t.Fatal("fresh mapping already has A/D bits")
	}
	if _, _, fault := pt.Walk(va, false, true); fault != nil {
		t.Fatal(fault)
	}
	e, _ = pt.Lookup(va)
	if !e.Flags.Has(Accessed) || e.Flags.Has(Dirty) {
		t.Fatalf("after read: flags = %v, want A set, D clear", e.Flags)
	}
	if _, _, fault := pt.Walk(va, true, true); fault != nil {
		t.Fatal(fault)
	}
	e, _ = pt.Lookup(va)
	if !e.Flags.Has(Dirty) {
		t.Fatalf("after write: flags = %v, want D set", e.Flags)
	}
}

func TestUnmapAndProtect(t *testing.T) {
	pt := newPT(t)
	va := arch.VA(0x4000)
	if _, err := pt.Map(va, 3, Writable|User); err != nil {
		t.Fatal(err)
	}
	if !pt.Protect(va, User) { // drop write permission
		t.Fatal("Protect returned false")
	}
	if _, _, fault := pt.Walk(va, true, true); fault == nil {
		t.Fatal("write after write-protect did not fault")
	}
	if !pt.Unmap(va) {
		t.Fatal("Unmap returned false")
	}
	if _, ok := pt.Lookup(va); ok {
		t.Fatal("mapping survives unmap")
	}
	if pt.Unmap(va) {
		t.Fatal("double unmap reported success")
	}
	if pt.Protect(va, User) {
		t.Fatal("protect of unmapped page reported success")
	}
}

func TestRangeOrderedAndComplete(t *testing.T) {
	pt := newPT(t)
	vas := []arch.VA{0x7f0000000000, 0x1000, 0x40000000, 0x1000000}
	for i, va := range vas {
		if _, err := pt.Map(va, arch.PFN(i+1), Writable); err != nil {
			t.Fatal(err)
		}
	}
	var got []arch.VA
	pt.Range(func(va arch.VA, e Entry) bool {
		got = append(got, va)
		return true
	})
	if len(got) != len(vas) {
		t.Fatalf("Range visited %d mappings, want %d", len(got), len(vas))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Range not in ascending order: %#x then %#x", got[i-1], got[i])
		}
	}
	if pt.CountMapped() != len(vas) {
		t.Fatalf("CountMapped = %d, want %d", pt.CountMapped(), len(vas))
	}
}

func TestDestroyReleasesFrames(t *testing.T) {
	alloc := mem.NewAllocator("pt", 0, 0)
	pt, err := New(alloc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := pt.Map(arch.VA(i)<<30, arch.PFN(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	if alloc.InUse() == 0 {
		t.Fatal("no table frames allocated")
	}
	if err := pt.Destroy(); err != nil {
		t.Fatal(err)
	}
	if alloc.InUse() != 0 {
		t.Fatalf("frames leaked after Destroy: %d", alloc.InUse())
	}
}

// TestDestroyOrderIsFixed pins the order in which Destroy returns table
// frames: DFS post-order from the root, the order TableFrames reports. The
// allocator's free list is LIFO, so that order decides which frames the
// next allocations receive — every table built after an exec or exit. A
// map-ordered Destroy hands out different frames on each run.
func TestDestroyOrderIsFixed(t *testing.T) {
	reuse := func() (frames, next []arch.PFN) {
		alloc := mem.NewAllocator("pt", 0, 0)
		pt, err := New(alloc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ { // one leaf table per 2 MiB span
			if _, err := pt.Map(arch.VA(i)*LargePageSpan, 0x100000+arch.PFN(i), Writable); err != nil {
				t.Fatal(err)
			}
		}
		frames = pt.TableFrames()
		if err := pt.Destroy(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			next = append(next, alloc.MustAlloc())
		}
		return frames, next
	}
	frames, first := reuse()
	if n := len(frames); n != 64+3 || frames[n-1] != 0 {
		t.Fatalf("TableFrames = %d frames ending at %#x, want 67 ending at the root", n, frames[n-1])
	}
	for i, pfn := range first {
		if want := frames[len(frames)-1-i]; pfn != want {
			t.Fatalf("allocation %d after Destroy got frame %#x, want %#x (LIFO over TableFrames order)", i, pfn, want)
		}
	}
	for run := 0; run < 8; run++ {
		if _, next := reuse(); !slices.Equal(next, first) {
			t.Fatalf("run %d reused frames %v, first run %v", run, next, first)
		}
	}
}

func TestNonCanonicalRejected(t *testing.T) {
	pt := newPT(t)
	bad := arch.VA(1) << arch.VABits
	if _, err := pt.Map(bad, 1, Writable); err == nil {
		t.Fatal("Map of non-canonical address succeeded")
	}
	if _, _, fault := pt.Walk(bad, false, false); fault == nil {
		t.Fatal("Walk of non-canonical address did not fault")
	}
}

// Property: mapping any set of distinct pages then walking each returns
// exactly the mapped PFN, and CountMapped matches the set size.
func TestPropertyMapWalkConsistency(t *testing.T) {
	f := func(raw []uint64) bool {
		pt, err := New(mem.NewAllocator("p", 0, 0))
		if err != nil {
			return false
		}
		want := map[arch.VA]arch.PFN{}
		for i, r := range raw {
			va := arch.VA(r % (1 << arch.VABits)).PageDown()
			want[va] = arch.PFN(i + 1)
			if _, err := pt.Map(va, arch.PFN(i+1), Writable|User); err != nil {
				return false
			}
		}
		for va, pfn := range want {
			e, _, fault := pt.Walk(va, true, true)
			if fault != nil || e.PFN != pfn {
				return false
			}
		}
		return pt.CountMapped() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of PTE writes for a fresh map is between 1 and
// PTLevels, and a second map of the same address costs exactly 1 write.
func TestPropertyWriteCounts(t *testing.T) {
	f := func(raw uint64) bool {
		pt, err := New(mem.NewAllocator("p", 0, 0))
		if err != nil {
			return false
		}
		va := arch.VA(raw % (1 << arch.VABits)).PageDown()
		w1, err := pt.Map(va, 1, Writable)
		if err != nil || w1 != arch.PTLevels {
			return false
		}
		w2, err := pt.Map(va, 2, Writable)
		return err == nil && w2 == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLargePages(t *testing.T) {
	pt := newPT(t)
	base := arch.VA(0x40000000)
	writes, err := pt.MapLarge(base+arch.PageSize, 1000, Writable|User)
	if err != nil {
		t.Fatal(err)
	}
	if writes != arch.PTLevels-1 {
		t.Errorf("writes = %d, want %d (root..level-2)", writes, arch.PTLevels-1)
	}
	// Any address in the 2 MiB span walks successfully at 3 levels.
	e, levels, fault := pt.Walk(base+100*arch.PageSize, true, true)
	if fault != nil {
		t.Fatalf("walk faulted: %v", fault)
	}
	if levels != arch.PTLevels-1 || !e.Flags.Has(Large) {
		t.Errorf("levels=%d flags=%v, want 3-level large leaf", levels, e.Flags)
	}
	// LookupLarge hits, 4K Lookup does not treat it as a 4K leaf.
	if _, ok := pt.LookupLarge(base); !ok {
		t.Error("LookupLarge missed")
	}
	if _, ok := pt.Lookup(base); ok {
		t.Error("4K Lookup should not return a large leaf")
	}
	// Range reports it once.
	count := 0
	pt.Range(func(va arch.VA, e Entry) bool {
		if !e.Flags.Has(Large) {
			t.Errorf("unexpected small leaf at %#x", va)
		}
		count++
		return true
	})
	if count != 1 {
		t.Errorf("Range visited %d entries, want 1", count)
	}
	// Permission faults on the large leaf.
	pt2 := newPT(t)
	if _, err := pt2.MapLarge(0, 5, User); err != nil {
		t.Fatal(err)
	}
	if _, _, fault := pt2.Walk(0x1000, true, true); fault == nil || fault.Kind != FaultProtection {
		t.Errorf("write to RO large page: %v, want protection fault", fault)
	}
	// Unmap.
	if !pt.UnmapLarge(base + 7*arch.PageSize) {
		t.Error("UnmapLarge failed")
	}
	if _, ok := pt.LookupLarge(base); ok {
		t.Error("large mapping survives unmap")
	}
	if pt.UnmapLarge(base) {
		t.Error("double UnmapLarge reported success")
	}
}

func TestMapLargeConflictsWithSmallTable(t *testing.T) {
	pt := newPT(t)
	if _, err := pt.Map(0x1000, 1, Writable); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.MapLarge(0x1000, 2, Writable); err == nil {
		t.Error("MapLarge over an existing 4K table should require a split")
	}
}

// TestPackRoundTrip checks that every flag bit and PFNs up to the packable
// limit survive an entry's in-frame packing.
func TestPackRoundTrip(t *testing.T) {
	all := Present | Writable | User | Global | Accessed | Dirty | NoExec | Large
	for _, pfn := range []arch.PFN{0, 1, 0x1000, 0xdeadbeef, maxPFN - 1} {
		for bit := Present; bit <= Large; bit <<= 1 {
			for _, f := range []Flags{bit, all &^ bit} {
				e := Entry{PFN: pfn, Flags: f}
				if got := unpack(pack(e)); got != e {
					t.Errorf("unpack(pack(%+v)) = %+v", e, got)
				}
			}
		}
		if e := (Entry{PFN: pfn, Flags: all}); unpack(pack(e)) != e {
			t.Errorf("all flags at PFN %#x do not round-trip", pfn)
		}
	}
}

// TestPackPanicsOutOfRange checks that a PFN the packed form cannot hold
// panics instead of aliasing a smaller frame.
func TestPackPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pack accepted PFN 2^48")
		}
	}()
	pt := newPT(t)
	pt.Map(0x1000, arch.PFN(1)<<48, Writable)
}

// TestTableFrameLayout pins the table frame at 6 KiB and pointer-free, so
// the garbage collector never scans the frames.
func TestTableFrameLayout(t *testing.T) {
	if got := unsafe.Sizeof(table{}); got != 6144 {
		t.Errorf("table frame is %d bytes, want 6144", got)
	}
	var noPointers func(reflect.Type) bool
	noPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Array:
			return noPointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !noPointers(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			return true
		}
		return false
	}
	if !noPointers(reflect.TypeOf(table{})) {
		t.Error("table frame holds a pointer")
	}
}
