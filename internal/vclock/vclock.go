// Package vclock implements a deterministic discrete-virtual-time execution
// engine for the PVM simulator.
//
// Each simulated vCPU runs its workload as a coroutine (iter.Pull) and
// advances a per-vCPU virtual clock (int64 nanoseconds) as it charges costs.
// The engine enforces a conservative ordering discipline: a vCPU may only
// perform an operation when its clock is the global minimum among runnable
// vCPUs (ties broken by vCPU id). Engine.Go only registers a vCPU; nothing
// runs until Engine.Wait, which is the scheduler: a single-threaded loop
// that resumes the minimum-clock vCPU until none is left. Schedules are
// therefore deterministic by construction, at any GOMAXPROCS and under any
// host load, and no engine state needs a mutex.
//
// A gating operation (Advance, Compute, Sync, Acquire, Release) folds the
// vCPU's pending lazy charges into its clock, yields to the scheduler until
// the vCPU is the heap root, performs the operation, and keeps running
// without yielding. Work between gating operations touches only per-vCPU
// state (the gate-first rule), so it may run ahead of its virtual slot.
//
// Virtual locks model serialization (e.g. KVM's global mmu_lock versus PVM's
// fine-grained shadow-page-table locks). Acquiring a contended lock advances
// the acquirer's clock to the release time of the previous holder and records
// contention statistics; this is exactly the mechanism behind the paper's
// Figure 10 scalability results.
//
// Runnable vCPUs are indexed by a binary min-heap keyed on (clock, id), so
// admitting a vCPU, advancing a clock, and acquiring a lock all cost
// O(log #vCPUs); the minimum is found in O(1). The heap's key order is the
// same (now, id) tie-break a linear min-scan would use, so schedules are
// bit-identical to a reference O(n) implementation of the same discipline
// (asserted by TestHeapMatchesLinearReference).
//
// Host parallelism comes from running independent engines (one per
// experiment cell) on separate goroutines; one engine is never shared
// between goroutines other than through its own scheduler.
package vclock

import (
	"fmt"
	"slices"
)

// state of a simulated vCPU with respect to the scheduler.
type state int

const (
	running  state = iota // participates in the min-clock computation
	lockWait              // blocked on a virtual lock; excluded from min
	done                  // finished; excluded from min
)

// Engine coordinates a set of simulated vCPUs.
type Engine struct {
	cpus []*CPU

	// heap indexes the running vCPUs as a binary min-heap ordered by
	// (now, id). heap[0] is always the vCPU allowed to act next.
	heap []*CPU

	// cores bounds simulated hardware parallelism. Compute advances are
	// dilated when more vCPUs are runnable than cores. Zero means
	// unlimited (no dilation).
	cores int

	// aborted is set when a workload panics or the run deadlocks; Wait
	// then unwinds every unfinished vCPU instead of scheduling it.
	aborted bool
	err     error

	// eager disables fused cost charging (SetEagerCharges): AdvanceLazy
	// becomes an immediate Advance. Schedules are bit-identical either
	// way; the metamorphic harness pins the fused accounting against the
	// fully eager engine.
	eager bool

	// solo is the vCPU the runnable set last narrowed to: the sole running
	// vCPU with no lock waiters. Any change to the heap's membership clears
	// it; soloGrants counts how many times it was set (see noteSolo).
	solo       *CPU
	soloGrants int64

	// lockWaiters counts vCPUs parked on lock waiter queues (state
	// lockWait).
	lockWaiters int
}

// NewEngine returns an engine with unlimited simulated cores.
func NewEngine() *Engine {
	return &Engine{}
}

// SetCores bounds simulated hardware parallelism; see Engine.cores.
// Must be called before Wait.
func (e *Engine) SetCores(n int) { e.cores = n }

// SoloGrants returns how many times the runnable set narrowed to a single
// vCPU with no lock waiters, observed at vCPU admission and departure and at
// the end of each gating operation (diagnostic: a lone vCPU's gates are
// always satisfied without a scheduler round trip).
func (e *Engine) SoloGrants() int64 { return e.soloGrants }

// SetEagerCharges disables (on=true) or restores (on=false) fused cost
// charging: with eager charges every AdvanceLazy gates immediately like
// Advance. Deferred charges are always folded into the clock before any
// interaction with shared state, so the virtual-time observables — final
// clocks, makespan, lock statistics, trace timestamps — are bit-identical
// either way; the metamorphic harness uses this to pin the fused fast path
// against the fully eager engine. Must be set before Wait.
func (e *Engine) SetEagerCharges(on bool) { e.eager = on }

// Clocks returns every vCPU's current virtual time (pending lazy charges
// folded in), indexed by vCPU id. Safe to call from a running vCPU or after
// Wait.
func (e *Engine) Clocks() []int64 {
	out := make([]int64, len(e.cpus))
	for i, c := range e.cpus {
		out[i] = c.now + c.lazy
	}
	return out
}

// Audit verifies the engine's structural invariants: the heap is a valid
// (clock, id) min-heap with consistent back-indices, exactly the running
// vCPUs are indexed, every lock-waiting vCPU is queued on the lock it
// records, the engine-wide lock-waiter count matches, and a standing solo
// mark names the sole runnable vCPU. It is read-only and safe to call from
// a running vCPU between operations.
func (e *Engine) Audit() error {
	for i, c := range e.heap {
		if c.hi != i {
			return fmt.Errorf("vclock: heap[%d] is vCPU %d with back-index %d", i, c.id, c.hi)
		}
		if c.st != running {
			return fmt.Errorf("vclock: heap[%d] (vCPU %d) has state %d, want running", i, c.id, c.st)
		}
		if i > 0 {
			parent := e.heap[(i-1)/2]
			if cpuLess(c, parent) {
				return fmt.Errorf("vclock: heap order violated: heap[%d] (vCPU %d, t=%d) < parent (vCPU %d, t=%d)",
					i, c.id, c.now, parent.id, parent.now)
			}
		}
	}
	inHeap := 0
	waiters := 0
	for _, c := range e.cpus {
		switch c.st {
		case running:
			inHeap++
			if c.hi < 0 || c.hi >= len(e.heap) || e.heap[c.hi] != c {
				return fmt.Errorf("vclock: running vCPU %d not indexed by the heap (hi=%d)", c.id, c.hi)
			}
		case lockWait:
			waiters++
			if c.hi != -1 {
				return fmt.Errorf("vclock: lock-waiting vCPU %d still has heap index %d", c.id, c.hi)
			}
			if c.waitOn == nil || !slices.Contains(c.waitOn.waiters, c) {
				return fmt.Errorf("vclock: lock-waiting vCPU %d is not queued on a lock", c.id)
			}
		case done:
			if c.hi != -1 {
				return fmt.Errorf("vclock: finished vCPU %d still has heap index %d", c.id, c.hi)
			}
		}
	}
	if inHeap != len(e.heap) {
		return fmt.Errorf("vclock: %d running vCPUs but heap holds %d", inHeap, len(e.heap))
	}
	if waiters != e.lockWaiters {
		return fmt.Errorf("vclock: lockWaiters=%d but %d vCPUs are in lockWait", e.lockWaiters, waiters)
	}
	if s := e.solo; s != nil && (len(e.heap) != 1 || e.heap[0] != s || e.lockWaiters != 0) {
		return fmt.Errorf("vclock: solo mark on vCPU %d but %d vCPUs are runnable and %d wait on locks",
			s.id, len(e.heap), e.lockWaiters)
	}
	return nil
}

// CPU is one simulated virtual CPU (or guest process context). All methods
// must be called from the vCPU's own workload function.
type CPU struct {
	id  int
	e   *Engine
	now int64
	st  state

	// hi is the index in Engine.heap, or -1 while not running.
	hi int

	// waitOn is the lock this vCPU is queued on while in lockWait.
	waitOn *Lock

	// lazy accumulates deferred charges (AdvanceLazy), folded into now at
	// the next gating operation.
	lazy int64

	// resume and stop drive the vCPU's coroutine from the scheduler; yield
	// hands control back to it from inside the workload.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// Advanced accumulates total virtual time charged to this CPU.
	Advanced int64
}

// cpuLess orders vCPUs by (clock, id) — the engine's scheduling priority.
func cpuLess(a, b *CPU) bool {
	return a.now < b.now || (a.now == b.now && a.id < b.id)
}

// heapPush admits c to the runnable index.
func (e *Engine) heapPush(c *CPU) {
	e.solo = nil
	c.hi = len(e.heap)
	e.heap = append(e.heap, c)
	e.siftUp(c.hi)
}

// heapRemove evicts c from the runnable index.
func (e *Engine) heapRemove(c *CPU) {
	e.solo = nil
	i := c.hi
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap[i].hi = i
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	c.hi = -1
	if i != last {
		e.siftDown(i)
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !cpuLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].hi = i
		h[parent].hi = parent
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && cpuLess(h[r], h[l]) {
			m = r
		}
		if !cpuLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		h[i].hi = i
		h[m].hi = m
		i = m
	}
}

// noteSolo records a solo grant when the runnable set has narrowed to one
// vCPU with no lock waiters since the last heap membership change.
func (e *Engine) noteSolo() {
	if e.solo == nil && len(e.heap) == 1 && e.lockWaiters == 0 && !e.aborted {
		e.solo = e.heap[0]
		e.soloGrants++
	}
}

// Go registers a fresh vCPU that starts at virtual time start and will run
// fn as a coroutine once the scheduler reaches it; the vCPU is marked done
// when fn returns. Called before Wait, it admits the vCPU to the next run;
// called from a running vCPU (e.g. to model fork), pass the parent's current
// time, which is the global minimum after the parent's last gate, so the
// child joins consistently.
//
// A panic in fn does not crash the process: the engine records the panic as
// an error (see Err), aborts the run, and unwinds every other vCPU so Wait
// still returns.
func (e *Engine) Go(start int64, fn func(c *CPU)) *CPU {
	c := &CPU{id: len(e.cpus), e: e, now: start, st: running, hi: -1}
	e.cpus = append(e.cpus, c)
	e.heapPush(c)
	e.noteSolo()
	c.resume, c.stop = coroutine(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, drain := r.(engineAbort); !drain {
					e.abort(fmt.Errorf("vclock: vCPU %d panicked: %v", c.id, r))
				}
			}
			c.Done()
		}()
		fn(c)
	})
	return c
}

// Wait runs the scheduler: it resumes the minimum-(clock, id) vCPU until no
// vCPU is runnable. If vCPUs are still queued on locks at that point, the
// run has deadlocked and Err names it. After an abort, every unfinished vCPU
// is unwound. Check Err afterwards. Wait may be called again after
// registering more vCPUs.
func (e *Engine) Wait() {
	for len(e.heap) > 0 && !e.aborted {
		e.heap[0].resume()
	}
	if !e.aborted && e.lockWaiters > 0 {
		e.abort(e.deadlock())
	}
	if e.aborted {
		for i := 0; i < len(e.cpus); i++ { // unwinding may register more
			e.cpus[i].stop()
			e.cpus[i].Done()
		}
	}
}

// deadlock names a lock waiter of a run whose runnable set emptied. A lock
// with waiters always has a holder: Release hands it straight over.
func (e *Engine) deadlock() error {
	c := e.cpus[slices.IndexFunc(e.cpus, func(c *CPU) bool { return c.st == lockWait })]
	return fmt.Errorf("vclock: deadlock: no runnable vCPU and %d waiting on locks (vCPU %d waits on %q held by vCPU %d)",
		e.lockWaiters, c.id, c.waitOn.name, c.waitOn.holder.id)
}

// Err returns the error that aborted the run — the first workload panic or
// a deadlock — or nil for a clean run.
func (e *Engine) Err() error { return e.err }

// engineAbort is the panic value used to unwind vCPUs after the run was
// aborted.
type engineAbort struct{ err error }

// abort records the first failure; Wait unwinds the remaining vCPUs.
func (e *Engine) abort(err error) {
	if !e.aborted {
		e.aborted = true
		e.err = err
	}
	e.solo = nil
}

// pause yields c's coroutine to the scheduler, unwinding c when the run has
// been aborted.
func (c *CPU) pause() {
	if !c.yield(struct{}{}) {
		panic(engineAbort{c.e.err})
	}
}

// Makespan returns the maximum clock across all vCPUs (the virtual duration
// of the whole run). Call it after Wait; a vCPU's pending lazy charges are
// folded in.
func (e *Engine) Makespan() int64 {
	var m int64
	for _, c := range e.cpus {
		if t := c.now + c.lazy; t > m {
			m = t
		}
	}
	return m
}

// gate folds c's pending lazy charges into its clock — the deferred work
// happened strictly before any interaction with shared state, so applying
// it first preserves causal order — and returns once c is the heap root.
func (c *CPU) gate() {
	e := c.e
	if e.aborted {
		panic(engineAbort{e.err})
	}
	if c.hi < 0 {
		panic(fmt.Sprintf("vclock: vCPU %d operated on while not runnable", c.id))
	}
	if c.lazy != 0 {
		c.now += c.lazy
		c.Advanced += c.lazy
		c.lazy = 0
		e.siftDown(c.hi)
	}
	for e.heap[0] != c {
		c.pause()
	}
}

// charge commits d at c's slot (c is the heap root).
func (c *CPU) charge(d int64) {
	c.now += d
	c.Advanced += d
	c.e.siftDown(c.hi)
	c.e.noteSolo()
}

// ID returns the vCPU's stable identifier.
func (c *CPU) ID() int { return c.id }

// Now returns the vCPU's current virtual time including pending lazy
// charges.
func (c *CPU) Now() int64 { return c.now + c.lazy }

// AdvanceLazy charges d nanoseconds without synchronizing with the engine.
// Use it for private work (TLB hits, guest-internal costs) between shared
// operations; the charge is folded in at the next gating operation.
func (c *CPU) AdvanceLazy(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative lazy advance %d", d))
	}
	if c.e.eager {
		// Fused charging disabled (SetEagerCharges): gate immediately.
		c.Advance(d)
		return
	}
	c.lazy += d
}

// Advance charges d nanoseconds of virtual latency (hardware transition,
// device service time, …). Latency advances are never dilated by core
// oversubscription. Advance gates on the min-clock before committing the
// charge, so workload code between engine operations runs only after its
// vCPU's virtual-time slot was reached.
func (c *CPU) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %d", d))
	}
	c.gate()
	c.charge(d)
}

// Compute charges d nanoseconds of CPU-bound work. When more vCPUs are
// runnable than the engine's simulated core count, the charge is dilated
// proportionally, modeling timeslicing on an oversubscribed machine.
func (c *CPU) Compute(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative compute %d", d))
	}
	c.gate()
	if e := c.e; e.cores > 0 {
		if r := len(e.heap); r > e.cores {
			d = d * int64(r) / int64(e.cores)
		}
	}
	c.charge(d)
}

// Sync blocks until the vCPU holds the minimum clock without advancing it.
// Use it to order a side-effecting operation (e.g. mutating shared simulator
// state) into the deterministic schedule. The mutation must complete before
// the vCPU's next engine operation.
func (c *CPU) Sync() {
	c.gate()
	c.e.noteSolo()
}

// Done removes the vCPU from scheduling, folding its pending lazy charges
// into its clock. Idempotent; the engine calls it when the vCPU's function
// returns or is unwound.
func (c *CPU) Done() {
	if c.st == done {
		return
	}
	e := c.e
	c.now += c.lazy
	c.Advanced += c.lazy
	c.lazy = 0
	switch c.st {
	case running:
		e.heapRemove(c)
	case lockWait:
		l := c.waitOn
		i := slices.Index(l.waiters, c)
		l.waiters = slices.Delete(l.waiters, i, i+1)
		c.waitOn = nil
		e.lockWaiters--
	}
	c.st = done
	e.noteSolo()
}

// Lock is a virtual mutex. Contention is charged in virtual time: a vCPU
// acquiring a lock held until time t resumes at t. All acquisitions and
// handoffs are deterministic (waiters are granted in (clock, id) order).
// While a vCPU holds a virtual lock, no other vCPU contending for it can run
// its critical section.
//
// The zero value is unusable; create locks with Engine.NewLock.
type Lock struct {
	name string

	held    bool
	holder  *CPU
	freeAt  int64
	waiters []*CPU

	lastAcquire int64

	// Statistics (read with Stats after the run).
	acquisitions int64
	contended    int64
	waitTime     int64
	heldTime     int64
}

// NewLock creates a named virtual lock managed by this engine.
func (e *Engine) NewLock(name string) *Lock {
	return &Lock{name: name}
}

// Name returns the lock's diagnostic name.
func (l *Lock) Name() string { return l.name }

// LockStats is a snapshot of a virtual lock's contention counters.
type LockStats struct {
	Name         string
	Acquisitions int64
	Contended    int64 // acquisitions that had to wait
	WaitTime     int64 // total virtual ns spent waiting
	HeldTime     int64 // total virtual ns the lock was held
}

// Stats returns a snapshot of the lock's counters.
func (l *Lock) Stats() LockStats {
	return LockStats{
		Name:         l.name,
		Acquisitions: l.acquisitions,
		Contended:    l.contended,
		WaitTime:     l.waitTime,
		HeldTime:     l.heldTime,
	}
}

// Acquire takes the lock on behalf of c at c's virtual slot. A held lock
// parks c on the waiter queue, out of the runnable heap, until a Release
// hands the lock over and advances c's clock past the contention.
// Recursive acquisition panics.
func (l *Lock) Acquire(c *CPU) {
	if l.held && l.holder == c {
		panic("vclock: recursive acquisition of " + l.name)
	}
	c.gate()
	e := c.e
	if l.held {
		c.st = lockWait
		e.heapRemove(c)
		c.waitOn = l
		l.waiters = append(l.waiters, c)
		e.lockWaiters++
		for l.holder != c {
			c.pause()
		}
		// Handoff complete: Release already updated our clock and the lock
		// bookkeeping, and the scheduler resumed us at our slot.
		e.noteSolo()
		return
	}
	if l.freeAt > c.now {
		// Cannot happen under conservative ordering (the releaser held the
		// minimum clock), but stay safe.
		l.contended++
		l.waitTime += l.freeAt - c.now
		c.now = l.freeAt
		e.siftDown(c.hi)
	}
	l.held = true
	l.holder = c
	l.lastAcquire = c.now
	l.acquisitions++
	e.noteSolo()
}

// Release drops the lock, recording held time, and deterministically hands it
// to the waiting vCPU with the smallest (clock, id), if any. The recipient's
// clock is advanced to the release time, charging the wait as contention.
//
// Release gates on the min-clock: every vCPU whose clock is behind the
// release time has either advanced past it or joined the waiter queue by the
// time the handoff is decided, so the queue contents — and therefore the
// handoff order — are a pure function of virtual time.
func (l *Lock) Release(c *CPU) {
	if !l.held || l.holder != c {
		panic("vclock: release of " + l.name + " by non-holder")
	}
	c.gate()
	e := c.e
	l.heldTime += c.now - l.lastAcquire
	l.freeAt = c.now
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = nil
		e.noteSolo()
		return
	}
	// Deterministic handoff: smallest (now, id) waiter wins.
	best := 0
	for i, w := range l.waiters[1:] {
		if cpuLess(w, l.waiters[best]) {
			best = i + 1
		}
	}
	w := l.waiters[best]
	l.waiters = slices.Delete(l.waiters, best, best+1)
	e.lockWaiters--
	l.contended++
	if w.now < l.freeAt {
		l.waitTime += l.freeAt - w.now
		w.now = l.freeAt
	}
	l.holder = w
	l.lastAcquire = w.now
	l.acquisitions++
	w.st = running
	w.waitOn = nil
	e.heapPush(w)
}

// With runs fn while holding the lock, charging hold nanoseconds of work
// inside the critical section before releasing.
func (l *Lock) With(c *CPU, hold int64, fn func()) {
	l.Acquire(c)
	if fn != nil {
		fn()
	}
	if hold > 0 {
		c.AdvanceLazy(hold)
	}
	l.Release(c)
}
