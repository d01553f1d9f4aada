package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestAllocFreeCycle(t *testing.T) {
	a := NewAllocator("host", 4, 0x1000)
	p1 := a.MustAlloc()
	p2 := a.MustAlloc()
	if p1 == p2 {
		t.Fatal("allocator returned the same frame twice")
	}
	if p1 < 0x1000 || p2 < 0x1000 {
		t.Fatalf("frames below base: %#x %#x", p1, p2)
	}
	if a.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", a.InUse())
	}
	rel, err := a.Free(p1)
	if err != nil || !rel {
		t.Fatalf("Free = (%v, %v), want released", rel, err)
	}
	p3 := a.MustAlloc()
	if p3 != p1 {
		t.Fatalf("freed frame not reused: got %#x, want %#x", p3, p1)
	}
}

func TestLimitEnforced(t *testing.T) {
	a := NewAllocator("tiny", 2, 0)
	a.MustAlloc()
	a.MustAlloc()
	if _, err := a.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	st := a.Stats()
	if st.InUse != 2 || st.Allocs != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRefcountedSharing(t *testing.T) {
	a := NewAllocator("cow", 0, 0)
	p := a.MustAlloc()
	if err := a.Share(p); err != nil {
		t.Fatal(err)
	}
	if rc := a.RefCount(p); rc != 2 {
		t.Fatalf("refcount = %d, want 2", rc)
	}
	rel, err := a.Free(p)
	if err != nil || rel {
		t.Fatalf("first free should not release: (%v, %v)", rel, err)
	}
	rel, err = a.Free(p)
	if err != nil || !rel {
		t.Fatalf("second free should release: (%v, %v)", rel, err)
	}
	if rc := a.RefCount(p); rc != 0 {
		t.Fatalf("refcount after release = %d, want 0", rc)
	}
}

func TestErrorsOnUnallocated(t *testing.T) {
	a := NewAllocator("x", 0, 0)
	if _, err := a.Free(arch.PFN(99)); err == nil {
		t.Error("free of unallocated frame did not error")
	}
	if err := a.Share(arch.PFN(99)); err == nil {
		t.Error("share of unallocated frame did not error")
	}
}

// Property: after any sequence of allocs with paired frees, InUse equals the
// number of outstanding frames, and no frame is handed out twice while live.
func TestPropertyNoDoubleAllocation(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewAllocator("p", 0, 0)
		live := map[arch.PFN]bool{}
		var order []arch.PFN
		for _, alloc := range ops {
			if alloc || len(order) == 0 {
				p := a.MustAlloc()
				if live[p] {
					return false // double allocation
				}
				live[p] = true
				order = append(order, p)
			} else {
				p := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, p)
				if _, err := a.Free(p); err != nil {
					return false
				}
			}
			if a.InUse() != int64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFreeRunMatchesPerFrameFree(t *testing.T) {
	run := func(batch bool) Stats {
		a := NewAllocator("p", 0, 0x10)
		base := a.MustAlloc()
		for i := 0; i < 7; i++ {
			a.MustAlloc()
		}
		for i := 0; i < 4; i++ { // first 4 frames rc=2
			if err := a.Share(base + arch.PFN(i)); err != nil {
				t.Fatal(err)
			}
		}
		if batch {
			if err := a.FreeRun(base, 8); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < 8; i++ {
				if _, err := a.Free(base + arch.PFN(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return a.Stats()
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("FreeRun stats %+v != per-frame Free %+v", got, want)
	}
}
