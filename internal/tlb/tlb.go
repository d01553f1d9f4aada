// Package tlb implements the simulator's tagged translation lookaside buffer.
//
// Entries are tagged (VPID, PCID, VPN) exactly as on VT-x hardware with
// PCID enabled. The tag structure is what PVM's PCID-mapping optimization
// exploits: by assigning distinct host-side PCIDs to each L2 address space,
// world switches need no TLB flush at all, whereas a traditional shadow-
// paging hypervisor must flush the whole guest VPID on every guest-requested
// flush (the cold-start penalty described in §3.3.2 of the paper).
//
// The LRU chain is an intrusive doubly-linked list threaded through a slice
// of nodes preallocated at construction, so the steady-state hot path —
// Lookup and Insert on a warm TLB — performs no heap allocation at all.
//
// The TLB is fully associative: any tag may occupy any slot, and eviction
// takes the globally least recently used entry. Tags are packed into a
// single uint64 (VPN | PCID | VPID) and found through an open-addressed
// index of node numbers (linear probing, backward-shift deletion), and a
// one-entry "micro-TLB" (last resolved tag + its node index, stamped with a
// structural generation counter) sits in front of the index. The generation
// is bumped by every insert and every entry removal (page zaps and all flush
// variants), so a stale micro entry can never be observed — correctness
// does not depend on callers invalidating anything. LookupRange resolves a run of consecutive
// pages with per-page semantics identical to repeated Lookup calls
// (same hit/miss accounting, same LRU reordering) but without re-deriving
// the tag from scratch on every page.
package tlb

import (
	"math/bits"

	"repro/internal/arch"
)

// Key tags one TLB entry (the unpacked form; entries are stored under the
// packed uint64 representation).
type Key struct {
	VPID arch.VPID
	PCID arch.PCID
	VPN  uint64 // virtual page number
}

// Packed tag layout. The simulated address space is 48 bits
// (arch.VABits), so a canonical VPN fits in 36 bits; PCIDs are
// architecturally below 4096 (12 bits), which leaves the full 16-bit VPID
// range. pack panics rather than aliasing if a tag ever falls outside
// those bounds.
const (
	vpnBits   = arch.VABits - arch.PageShift // 36
	pcidBits  = 12
	vpnMask   = 1<<vpnBits - 1
	pcidShift = vpnBits
	vpidShift = vpnBits + pcidBits
)

// pack folds a (VPID, PCID, VPN) tag into one uint64.
func pack(vpid arch.VPID, pcid arch.PCID, vpn uint64) uint64 {
	if uint64(pcid) >= 1<<pcidBits || vpn > vpnMask {
		panic("tlb: tag out of packable range")
	}
	return vpn | uint64(pcid)<<pcidShift | uint64(vpid)<<vpidShift
}

// unpack recovers the tag from its packed form.
func unpack(k uint64) Key {
	return Key{
		VPID: arch.VPID(k >> vpidShift),
		PCID: arch.PCID(k >> pcidShift & (1<<pcidBits - 1)),
		VPN:  k & vpnMask,
	}
}

// Entry is a cached translation.
type Entry struct {
	PFN    arch.PFN
	Global bool // survives PCID-targeted flushes (switcher pages)
	Write  bool // writable translation cached
}

// Stats counts TLB activity.
type Stats struct {
	Hits        int64
	Misses      int64
	Inserts     int64
	Evictions   int64
	FlushPage   int64
	FlushPCID   int64
	FlushVPID   int64
	FlushAll    int64
	FlushedEnts int64 // entries removed by flushes
}

// none marks the end of an intrusive list chain.
const none = int32(-1)

// node is one slot of the preallocated entry store.
type node struct {
	key        uint64 // packed tag
	ent        Entry
	prev, next int32

	// Run link: the slot holding key+1, valid while runGen matches the
	// TLB's structural generation. Within one generation the key↔slot
	// assignment is frozen (Insert, eviction, and release all bump gen),
	// so a matching runGen guarantees the linked slot still caches the
	// consecutive page — LookupRange follows these links instead of
	// probing the index for every page of a hit run.
	run    int32
	runGen uint64
}

// TLB is a capacity-bounded, LRU-evicting, tagged TLB.
type TLB struct {
	capacity int
	live     int    // entries cached
	nodes    []node // all capacity slots, allocated once

	// index finds a tag's node: each slot holds node+1, or 0 when empty.
	// Its length is a power of two at least twice the capacity, so probe
	// runs stay short; a tag probes linearly from home(tag).
	index []int32
	shift uint // 64 - log2(len(index))

	head int32 // most recently used, or none
	tail int32 // least recently used, or none
	free int32 // chain of unused slots through next

	// Micro-TLB: the last tag resolved by a lookup or insert, and the
	// node it lives in. Valid only while microGen == gen; gen advances
	// on every structural change (insert, eviction, zap, flush), so the
	// cached index can never point at a reassigned slot.
	microKey  uint64
	microNode int32
	microGen  uint64
	gen       uint64

	stats Stats
}

// New creates a TLB holding up to capacity entries (capacity <= 0 panics).
// The node arena and index are allocated at full geometry by the first Insert,
// not here: a process that never touches a page (a short-lived fork child,
// say) pays nothing for its TLB, which keeps per-process construction off
// the lifecycle hot paths, while a faulting process pays the one-time
// allocation it always paid — just at first use. Slot indexes are handed
// out in the same 0,1,2,… order either way, so the deferral is unobservable.
func New(capacity int) *TLB {
	if capacity <= 0 {
		panic("tlb: capacity must be positive")
	}
	return &TLB{
		capacity: capacity,
		head:     none,
		tail:     none,
		free:     none,
		gen:      1, // microGen zero can never match
	}
}

// detach unlinks slot i from the LRU chain.
func (t *TLB) detach(i int32) {
	n := &t.nodes[i]
	if n.prev != none {
		t.nodes[n.prev].next = n.next
	} else {
		t.head = n.next
	}
	if n.next != none {
		t.nodes[n.next].prev = n.prev
	} else {
		t.tail = n.prev
	}
}

// pushFront links slot i at the most-recently-used end.
func (t *TLB) pushFront(i int32) {
	n := &t.nodes[i]
	n.prev = none
	n.next = t.head
	if t.head != none {
		t.nodes[t.head].prev = i
	}
	t.head = i
	if t.tail == none {
		t.tail = i
	}
}

// home returns the index slot a tag's probe starts at: a Fibonacci hash,
// which spreads the consecutive VPNs of one address space across the index.
func (t *TLB) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// probe returns the index slot holding tag k and its node, or the empty
// slot that ends k's probe run and none.
func (t *TLB) probe(k uint64) (pos int, i int32) {
	mask := len(t.index) - 1
	for pos = t.home(k); ; pos = (pos + 1) & mask {
		n := t.index[pos]
		if n == 0 {
			return pos, none
		}
		if t.nodes[n-1].key == k {
			return pos, n - 1
		}
	}
}

// unindex empties index slot pos and shifts later members of its probe run
// back, so that every remaining tag stays reachable from its home slot
// without tombstones.
func (t *TLB) unindex(pos int) {
	mask := len(t.index) - 1
	for j := (pos + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// The tag at j may fill the hole at pos unless its home lies
		// cyclically after pos (in (pos, j]).
		if (j-t.home(t.nodes[t.index[j]-1].key))&mask >= (j-pos)&mask {
			t.index[pos] = t.index[j]
			pos = j
		}
	}
	t.index[pos] = 0
	t.live--
}

// find resolves a packed tag to its node index, consulting the micro-TLB
// before the index.
func (t *TLB) find(k uint64) (int32, bool) {
	if t.microGen == t.gen && t.microKey == k {
		return t.microNode, true
	}
	if t.index == nil {
		return none, false
	}
	_, i := t.probe(k)
	return i, i != none
}

// remember caches (k -> node i) in the micro-TLB.
func (t *TLB) remember(k uint64, i int32) {
	t.microKey, t.microNode, t.microGen = k, i, t.gen
}

// lookup is Lookup on an already-packed tag.
func (t *TLB) lookup(k uint64, write bool) (Entry, bool) {
	i, ok := t.find(k)
	if !ok {
		t.stats.Misses++
		return Entry{}, false
	}
	ent := t.nodes[i].ent
	if write && !ent.Write {
		t.stats.Misses++
		return Entry{}, false
	}
	if t.head != i {
		t.detach(i)
		t.pushFront(i)
	}
	t.remember(k, i)
	t.stats.Hits++
	return ent, true
}

// Lookup searches for a cached translation. A write access misses on a
// read-only cached entry (forcing a walk that sets the dirty bit), matching
// hardware behaviour. Zero-allocation.
func (t *TLB) Lookup(vpid arch.VPID, pcid arch.PCID, va arch.VA, write bool) (Entry, bool) {
	return t.lookup(pack(vpid, pcid, va.PageNumber()), write)
}

// LookupRange probes translations for up to pages consecutive pages
// starting at va and returns the length of the leading run of hits. Each
// probed page has exactly the observable effect a Lookup call would have —
// Hits/Misses accounting, LRU move-to-front — including the terminating
// miss (when the run is shorter than the request). The work that per-page
// Lookup repeats is amortized: the tag is packed once (consecutive pages
// differ by one in the packed form), hits inside a run follow the nodes'
// run links instead of probing the index, and the hit count is added in one
// step. None of that is observable: the micro-TLB and run links only ever
// short-circuit to the same node the index holds.
func (t *TLB) LookupRange(vpid arch.VPID, pcid arch.PCID, va arch.VA, pages int, write bool) int {
	k := pack(vpid, pcid, va.PageNumber())
	prev := none
	n := 0
	for ; n < pages; n++ {
		var i int32
		var ok bool
		if prev != none {
			if pn := &t.nodes[prev]; pn.runGen == t.gen && pn.run != none {
				i, ok = pn.run, true
			}
		}
		if !ok {
			if i, ok = t.find(k); !ok {
				break
			}
		}
		nd := &t.nodes[i]
		if write && !nd.ent.Write {
			break
		}
		if t.head != i {
			t.detach(i)
			t.pushFront(i)
		}
		if prev != none {
			t.nodes[prev].run = i
			t.nodes[prev].runGen = t.gen
		}
		prev = i
		k++
	}
	if n > 0 {
		t.stats.Hits += int64(n)
		t.remember(k-1, prev)
	}
	if n < pages {
		t.stats.Misses++
	}
	return n
}

// Insert caches a translation, evicting the least recently used entry when
// full. Insertion after the first does not allocate.
func (t *TLB) Insert(vpid arch.VPID, pcid arch.PCID, va arch.VA, e Entry) {
	if t.index == nil {
		// First insert: allocate the full geometry in one step (see New) so
		// no later insert pays index growth or arena reallocation.
		size := 2
		for size < 2*t.capacity {
			size <<= 1
		}
		t.index = make([]int32, size)
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
		t.nodes = make([]node, 0, t.capacity)
	}
	k := pack(vpid, pcid, va.PageNumber())
	t.gen++
	pos, i := t.probe(k)
	if i != none {
		t.nodes[i].ent = e
		if t.head != i {
			t.detach(i)
			t.pushFront(i)
		}
		t.remember(k, i)
		return
	}
	switch {
	case t.free != none:
		i = t.free
		t.free = t.nodes[i].next
	case len(t.nodes) < t.capacity:
		// Extend into the preallocated arena; never reallocates.
		t.nodes = append(t.nodes, node{})
		i = int32(len(t.nodes) - 1)
	default:
		// Full: reuse the least recently used slot.
		i = t.tail
		t.detach(i)
		vpos, _ := t.probe(t.nodes[i].key)
		t.unindex(vpos)
		t.stats.Evictions++
		// The shift may have moved k's probe run; find its end again.
		pos, _ = t.probe(k)
	}
	t.nodes[i].key = k
	t.nodes[i].ent = e
	t.pushFront(i)
	t.index[pos] = i + 1
	t.live++
	t.remember(k, i)
	t.stats.Inserts++
}

// release returns slot i (already detached from the LRU chain) to the free
// list and empties its index slot pos. Bumping gen invalidates the
// micro-TLB.
func (t *TLB) release(i int32, pos int) {
	t.gen++
	t.unindex(pos)
	t.nodes[i].next = t.free
	t.free = i
}

// FlushPage removes one page's translation (INVLPG / INVPCID single-address).
func (t *TLB) FlushPage(vpid arch.VPID, pcid arch.PCID, va arch.VA) {
	t.stats.FlushPage++
	k := pack(vpid, pcid, va.PageNumber())
	if t.index == nil {
		return
	}
	if pos, i := t.probe(k); i != none {
		t.detach(i)
		t.release(i, pos)
		t.stats.FlushedEnts++
	}
}

// FlushPCID removes all non-global entries of one (VPID, PCID) address
// space and returns how many entries were dropped.
func (t *TLB) FlushPCID(vpid arch.VPID, pcid arch.PCID) int {
	t.stats.FlushPCID++
	tag := uint64(pcid)<<pcidShift | uint64(vpid)<<vpidShift
	const tagMask = ^uint64(vpnMask)
	return t.flushWhere(func(k uint64, e Entry) bool {
		return k&tagMask == tag && !e.Global
	})
}

// FlushVPID removes every entry of the VPID regardless of PCID — the
// whole-guest cold-start flush traditional shadow paging suffers.
func (t *TLB) FlushVPID(vpid arch.VPID) int {
	t.stats.FlushVPID++
	tag := uint64(vpid) << vpidShift
	return t.flushWhere(func(k uint64, e Entry) bool {
		return k>>vpidShift<<vpidShift == tag
	})
}

// FlushAll empties the TLB (global entries included).
func (t *TLB) FlushAll() int {
	t.stats.FlushAll++
	return t.flushWhere(func(uint64, Entry) bool { return true })
}

func (t *TLB) flushWhere(pred func(uint64, Entry) bool) int {
	n := 0
	for i := t.head; i != none; {
		next := t.nodes[i].next
		if pred(t.nodes[i].key, t.nodes[i].ent) {
			t.detach(i)
			pos, _ := t.probe(t.nodes[i].key)
			t.release(i, pos)
			n++
		}
		i = next
	}
	t.stats.FlushedEnts += int64(n)
	return n
}

// Len returns the number of live entries.
func (t *TLB) Len() int { return t.live }

// Range calls fn for every live entry in LRU order (most recently used
// first) until fn returns false. It is a pure read: no stats movement, no
// LRU reordering, no micro-TLB update — auditors iterate a TLB without
// perturbing it.
func (t *TLB) Range(fn func(Key, Entry) bool) {
	for i := t.head; i != none; i = t.nodes[i].next {
		if !fn(unpack(t.nodes[i].key), t.nodes[i].ent) {
			return
		}
	}
}

// DropCaches force-invalidates the acceleration state guarding the packed
// fast paths — the one-entry micro-TLB and every node's run link — by
// bumping the structural generation, exactly as any insert or flush would.
// The cached translations themselves are untouched, so DropCaches has no
// observable effect; the metamorphic harness injects it to prove lookups
// never depend on the caches being warm.
func (t *TLB) DropCaches() { t.gen++ }

// Generation returns the structural generation counter guarding the
// micro-TLB. It advances on every insert, eviction, zap, and flush.
func (t *TLB) Generation() uint64 { return t.gen }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (t *TLB) HitRate() float64 {
	tot := t.stats.Hits + t.stats.Misses
	if tot == 0 {
		return 0
	}
	return float64(t.stats.Hits) / float64(tot)
}
