package vclock

import (
	"slices"
	"strings"
	"testing"
)

// Solo accounting: SoloGrants counts the moments the runnable set narrows
// to one vCPU with no lock waiters. perfbench's recorded digests pin the
// count, so these tests pin it on small schedules, together with the exact
// clock arithmetic of a lone vCPU and the abort paths.

// TestSoloSingleVCPU: a lone vCPU is granted once at admission and keeps
// the grant for its whole life — exact clock arithmetic across eager, lazy,
// lock, and compute charges.
func TestSoloSingleVCPU(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("l")
	e.Go(0, func(c *CPU) {
		c.Advance(10)
		c.AdvanceLazy(5)
		l.With(c, 7, nil)
		c.Sync()
		c.Compute(3)
	})
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if g := e.SoloGrants(); g != 1 {
		t.Fatalf("SoloGrants = %d, want 1", g)
	}
	if m := e.Makespan(); m != 25 {
		t.Fatalf("makespan = %d, want 25", m)
	}
	st := l.Stats()
	if st.Acquisitions != 1 || st.Contended != 0 || st.HeldTime != 7 {
		t.Fatalf("lock stats = %+v", st)
	}
}

// TestSoloReentryAfterPeerDone: admitting a peer clears the first grant;
// the peer's Done narrows the runnable set to the survivor again, which is
// the second grant, and the survivor's later operations account exactly.
func TestSoloReentryAfterPeerDone(t *testing.T) {
	e := NewEngine()
	e.Go(0, func(b *CPU) { // id 0: holds the min clock, runs first
		b.Advance(5)
		b.Advance(1) // t=6, then b leaves
	})
	if g := e.SoloGrants(); g != 1 {
		t.Fatalf("SoloGrants after one admission = %d, want 1", g)
	}
	e.Go(0, func(a *CPU) { // id 1: the survivor
		a.Advance(3)
		if g := e.SoloGrants(); g != 1 {
			t.Errorf("SoloGrants with a runnable peer = %d, want 1", g)
		}
		a.Advance(4)
		a.Sync() // t=7: b left at t=6, before a's slot
		if g := e.SoloGrants(); g != 2 {
			t.Errorf("SoloGrants after peer Done = %d, want 2", g)
		}
		a.Advance(3)
	})
	if g := e.SoloGrants(); g != 1 {
		t.Fatalf("SoloGrants after two admissions = %d, want 1", g)
	}
	e.Wait()
	if m := e.Makespan(); m != 10 {
		t.Fatalf("makespan = %d, want 10", m)
	}
	if g := e.SoloGrants(); g != 2 {
		t.Fatalf("final SoloGrants = %d, want 2", g)
	}
}

// TestSoloBlockedByLockWaiter: while a vCPU is parked on a lock, the holder
// running alone in the heap is not granted; the grant comes only when the
// handoff is done and the holder leaves.
func TestSoloBlockedByLockWaiter(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("mmu")
	e.Go(0, func(a *CPU) {
		l.Acquire(a)
		a.Advance(100) // b acquires at t=0 and parks behind a
		a.Advance(1)   // a runs alone in the heap, b waits
		if g := e.SoloGrants(); g != 1 {
			t.Errorf("SoloGrants with a parked lock waiter = %d, want 1", g)
		}
		l.Release(a) // t=101: hands the lock to b
	})
	e.Go(0, func(b *CPU) {
		l.Acquire(b)
		b.Advance(1)
		l.Release(b)
	})
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if m := e.Makespan(); m != 102 {
		t.Fatalf("makespan = %d, want 102", m)
	}
	// #1 at a's admission (cleared by b's), #2 when a leaves after the
	// handoff.
	if g := e.SoloGrants(); g != 2 {
		t.Fatalf("SoloGrants = %d, want 2", g)
	}
	st := l.Stats()
	if st.Acquisitions != 2 || st.Contended != 1 || st.WaitTime != 101 {
		t.Fatalf("lock stats = %+v, want 2 acquisitions, 1 contended, wait 101", st)
	}
}

// TestSoloLockIntentDuringHold: a solo vCPU holds a lock when it admits a
// peer mid-run that queues on that lock at an earlier virtual time. The
// admission clears the grant, the peer parks at its own slot, the release
// hands off deterministically, and contention accounting matches the gated
// arithmetic exactly.
func TestSoloLockIntentDuringHold(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("mmu")
	e.Go(0, func(a *CPU) {
		a.Advance(10)
		l.Acquire(a) // alone at t=10
		e.Go(15, func(b *CPU) {
			l.Acquire(b) // at t=15: held, parks until handoff
			b.Advance(1)
			l.Release(b)
		})
		a.Advance(10) // t=20
		l.Release(a)  // handoff: b resumes at t=20 having waited 5
		a.Advance(1)
	})
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if m := e.Makespan(); m != 21 {
		t.Fatalf("makespan = %d, want 21", m)
	}
	st := l.Stats()
	if st.Acquisitions != 2 || st.Contended != 1 || st.WaitTime != 5 || st.HeldTime != 11 {
		t.Fatalf("lock stats = %+v, want 2 acquisitions, 1 contended, wait 5, held 11", st)
	}
	// Grant #1 at a's admission (cleared when b is admitted), grant #2 for
	// whichever vCPU outlives the other. No grant may occur while b sits on
	// the waiter queue.
	if g := e.SoloGrants(); g != 2 {
		t.Fatalf("SoloGrants = %d, want 2", g)
	}
}

// TestSoloAbortDrains: a panic on a lone vCPU aborts the run; Wait returns
// and Err carries the panic.
func TestSoloAbortDrains(t *testing.T) {
	e := NewEngine()
	e.Go(0, func(c *CPU) {
		c.Advance(5)
		panic("boom")
	})
	e.Wait()
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Err = %v, want panic message", err)
	}
	if g := e.SoloGrants(); g != 1 {
		t.Fatalf("SoloGrants = %d, want 1", g)
	}
}

// TestSoloAbortDrainsLockWaiter: the panicking vCPU holds a lock another
// vCPU is queued on; the abort must unwind the waiter too.
func TestSoloAbortDrainsLockWaiter(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("l")
	e.Go(0, func(a *CPU) {
		l.Acquire(a)
		e.Go(0, func(b *CPU) {
			l.Acquire(b) // queues behind a, parks
			t.Error("waiter acquired a lock whose holder panicked")
		})
		a.Advance(1) // b runs and parks
		a.Advance(1)
		panic("holder died")
	})
	e.Wait()
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "holder died") {
		t.Fatalf("Err = %v, want holder panic", err)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSoloHandoffClocks: a lone vCPU's thousand gates land on exact clocks,
// and when one of two vCPUs finishes early the survivor, alone from then on,
// still does.
func TestSoloHandoffClocks(t *testing.T) {
	e := NewEngine()
	e.Go(0, func(c *CPU) {
		for i := 0; i < 1000; i++ {
			c.Advance(10)
		}
	})
	e.Wait()
	if got := e.Makespan(); got != 10_000 {
		t.Fatalf("makespan = %d, want 10000", got)
	}

	e2 := NewEngine()
	e2.Go(0, func(c *CPU) {
		for i := 0; i < 100; i++ {
			c.Advance(5)
		}
	})
	e2.Go(0, func(c *CPU) {
		for i := 0; i < 1000; i++ {
			c.Advance(7)
		}
	})
	e2.Wait()
	if err := e2.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Audit(); err != nil {
		t.Fatal(err)
	}
	if clocks := e2.Clocks(); !slices.Equal(clocks, []int64{500, 7000}) {
		t.Fatalf("clocks = %v, want [500 7000]", clocks)
	}
	if g := e2.SoloGrants(); g != 2 {
		t.Fatalf("SoloGrants = %d, want 2", g)
	}
}
