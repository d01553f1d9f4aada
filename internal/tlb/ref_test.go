package tlb

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// refTLB is the reference model the TLB must match: a Go map from packed tag
// to an element of a container/list LRU (front = most recently used).
type refTLB struct {
	capacity int
	m        map[uint64]*list.Element
	lru      *list.List // of refEnt
	stats    Stats
}

type refEnt struct {
	key uint64
	ent Entry
}

func newRef(capacity int) *refTLB {
	return &refTLB{capacity: capacity, m: map[uint64]*list.Element{}, lru: list.New()}
}

func (r *refTLB) lookup(k uint64, write bool) bool {
	el, ok := r.m[k]
	if !ok || (write && !el.Value.(refEnt).ent.Write) {
		r.stats.Misses++
		return false
	}
	r.lru.MoveToFront(el)
	r.stats.Hits++
	return true
}

func (r *refTLB) lookupRange(k uint64, pages int, write bool) int {
	n := 0
	for ; n < pages; n++ {
		el, ok := r.m[k+uint64(n)]
		if !ok || (write && !el.Value.(refEnt).ent.Write) {
			break
		}
		r.lru.MoveToFront(el)
	}
	r.stats.Hits += int64(n)
	if n < pages {
		r.stats.Misses++
	}
	return n
}

func (r *refTLB) insert(k uint64, e Entry) {
	if el, ok := r.m[k]; ok {
		el.Value = refEnt{k, e}
		r.lru.MoveToFront(el)
		return
	}
	if r.lru.Len() == r.capacity {
		old := r.lru.Remove(r.lru.Back()).(refEnt)
		delete(r.m, old.key)
		r.stats.Evictions++
	}
	r.m[k] = r.lru.PushFront(refEnt{k, e})
	r.stats.Inserts++
}

func (r *refTLB) flushPage(k uint64) {
	r.stats.FlushPage++
	if el, ok := r.m[k]; ok {
		r.lru.Remove(el)
		delete(r.m, k)
		r.stats.FlushedEnts++
	}
}

func (r *refTLB) flushWhere(pred func(Key, Entry) bool) int {
	n := 0
	for el := r.lru.Front(); el != nil; {
		next := el.Next()
		if re := el.Value.(refEnt); pred(unpack(re.key), re.ent) {
			r.lru.Remove(el)
			delete(r.m, re.key)
			n++
		}
		el = next
	}
	r.stats.FlushedEnts += int64(n)
	return n
}

// sameAs reports the first difference between the TLB and the model in
// Stats, Len or Range order (entries included).
func (r *refTLB) sameAs(t *TLB) error {
	if t.Stats() != r.stats {
		return fmt.Errorf("stats %+v, want %+v", t.Stats(), r.stats)
	}
	if t.Len() != r.lru.Len() {
		return fmt.Errorf("Len %d, want %d", t.Len(), r.lru.Len())
	}
	el := r.lru.Front()
	var err error
	t.Range(func(k Key, e Entry) bool {
		if el == nil {
			err = fmt.Errorf("Range yields %+v beyond the model's %d entries", k, r.lru.Len())
			return false
		}
		if re := el.Value.(refEnt); unpack(re.key) != k || re.ent != e {
			err = fmt.Errorf("Range yields (%+v, %+v), want (%+v, %+v)", k, e, unpack(re.key), re.ent)
			return false
		}
		el = el.Next()
		return true
	})
	if err == nil && el != nil {
		err = fmt.Errorf("Range stopped before the model's %d entries", r.lru.Len())
	}
	return err
}

// checkIndex verifies the open-addressed index: it holds exactly the live
// nodes, and every live tag is found by probing from its home slot.
func checkIndex(t *TLB) error {
	used := 0
	for _, n := range t.index {
		if n != 0 {
			used++
		}
	}
	if used != t.Len() {
		return fmt.Errorf("index holds %d slots, Len is %d", used, t.Len())
	}
	for i := t.head; i != none; i = t.nodes[i].next {
		if _, got := t.probe(t.nodes[i].key); got != i {
			return fmt.Errorf("probe(%+v) = node %d, want %d", unpack(t.nodes[i].key), got, i)
		}
	}
	return nil
}

// TestMatchesReferenceModel drives the TLB and the reference model with one
// seeded random sequence of every operation, over a tag space a few times
// the capacity so evictions, reinserts and probe collisions are frequent,
// and requires identical results, Stats, Len and Range order after every
// step.
func TestMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 5, 16} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			tb, ref := New(capacity), newRef(capacity)
			pages := 4 * capacity
			for step := 0; step < 20000; step++ {
				vpid := arch.VPID(1 + rng.Intn(2))
				pcid := arch.PCID(rng.Intn(3))
				vpn := uint64(rng.Intn(pages))
				va := arch.VA(vpn) << arch.PageShift
				k := pack(vpid, pcid, vpn)
				write := rng.Intn(2) == 0
				var op string
				switch r := rng.Intn(100); {
				case r < 35:
					op = "Lookup"
					_, got := tb.Lookup(vpid, pcid, va, write)
					if want := ref.lookup(k, write); got != want {
						t.Fatalf("step %d: Lookup(%d,%d,%#x,%v) = %v, want %v", step, vpid, pcid, va, write, got, want)
					}
				case r < 50:
					op = "LookupRange"
					n := 1 + rng.Intn(8)
					if got, want := tb.LookupRange(vpid, pcid, va, n, write), ref.lookupRange(k, n, write); got != want {
						t.Fatalf("step %d: LookupRange(%#x, %d) = %d, want %d", step, va, n, got, want)
					}
				case r < 85:
					op = "Insert"
					e := Entry{PFN: arch.PFN(rng.Intn(1 << 20)), Global: rng.Intn(8) == 0, Write: rng.Intn(2) == 0}
					tb.Insert(vpid, pcid, va, e)
					ref.insert(k, e)
				case r < 94:
					op = "FlushPage"
					tb.FlushPage(vpid, pcid, va)
					ref.flushPage(k)
				case r < 97:
					op = "FlushPCID"
					ref.stats.FlushPCID++
					want := ref.flushWhere(func(q Key, e Entry) bool { return q.VPID == vpid && q.PCID == pcid && !e.Global })
					if got := tb.FlushPCID(vpid, pcid); got != want {
						t.Fatalf("step %d: FlushPCID = %d, want %d", step, got, want)
					}
				case r < 99:
					op = "FlushVPID"
					ref.stats.FlushVPID++
					want := ref.flushWhere(func(q Key, _ Entry) bool { return q.VPID == vpid })
					if got := tb.FlushVPID(vpid); got != want {
						t.Fatalf("step %d: FlushVPID = %d, want %d", step, got, want)
					}
				default:
					op = "FlushAll"
					ref.stats.FlushAll++
					want := ref.flushWhere(func(Key, Entry) bool { return true })
					if got := tb.FlushAll(); got != want {
						t.Fatalf("step %d: FlushAll = %d, want %d", step, got, want)
					}
				}
				if err := ref.sameAs(tb); err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
				if tb.index != nil {
					if err := checkIndex(tb); err != nil {
						t.Fatalf("step %d (%s): %v", step, op, err)
					}
				}
			}
		})
	}
}

// TestProbeClusterDeleteFromMiddle builds one long probe run out of tags
// that share a home slot, deletes from its middle, and requires every
// survivor — including those shifted back over the holes — to stay
// reachable, with results matching the reference model throughout.
func TestProbeClusterDeleteFromMiddle(t *testing.T) {
	const capacity, cluster = 64, 12
	tb, ref := New(capacity), newRef(capacity)
	tb.Insert(1, 0, 0, Entry{PFN: 1}) // allocate the index
	ref.insert(pack(1, 0, 0), Entry{PFN: 1})
	home := tb.home(pack(1, 0, 0))
	var vpns []uint64
	for vpn := uint64(1); len(vpns) < cluster; vpn++ {
		if tb.home(pack(1, 0, vpn)) == home {
			vpns = append(vpns, vpn)
		}
	}
	// A tag homed just past the cluster start lands inside the run and
	// must survive the shifts without moving before its home.
	for vpn := uint64(1); ; vpn++ {
		if tb.home(pack(1, 0, vpn)) == (home+3)&(len(tb.index)-1) {
			vpns = append(vpns, vpn)
			break
		}
	}
	for i, vpn := range vpns {
		e := Entry{PFN: arch.PFN(100 + i), Write: true}
		tb.Insert(1, 0, arch.VA(vpn)<<arch.PageShift, e)
		ref.insert(pack(1, 0, vpn), e)
	}
	mask := len(tb.index) - 1
	for j := 0; j <= cluster; j++ {
		if tb.index[(home+j)&mask] == 0 {
			t.Fatalf("probe run from slot %d breaks at offset %d", home, j)
		}
	}
	for _, i := range []int{5, 1, 6, 0, 9} {
		va := arch.VA(vpns[i]) << arch.PageShift
		tb.FlushPage(1, 0, va)
		ref.flushPage(pack(1, 0, vpns[i]))
		if err := checkIndex(tb); err != nil {
			t.Fatalf("after flushing cluster member %d: %v", i, err)
		}
		if err := ref.sameAs(tb); err != nil {
			t.Fatalf("after flushing cluster member %d: %v", i, err)
		}
	}
	for _, vpn := range append([]uint64{0}, vpns...) {
		_, got := tb.Lookup(1, 0, arch.VA(vpn)<<arch.PageShift, false)
		if want := ref.lookup(pack(1, 0, vpn), false); got != want {
			t.Fatalf("Lookup(vpn %d) = %v, want %v", vpn, got, want)
		}
	}
	if err := ref.sameAs(tb); err != nil {
		t.Fatal(err)
	}
}
