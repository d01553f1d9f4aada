// Fork's copy phase: a per-leaf loop over the parent's page table in
// ascending VA order, charging one PTE store per parent-side COW
// write-protect (which traps when the parent's table is shadowed) and one
// per child-side leaf store, plus the unwind of a copy that failed.
package guest

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/pagetable"
)

// frameRun records a run of consecutive frames whose reference counts a
// fork in progress has taken, so a failed copy can return exactly those.
type frameRun struct {
	base arch.PFN
	n    int
}

// extendRuns folds pfn into the trailing run if consecutive, else
// starts a new run.
func extendRuns(runs []frameRun, pfn arch.PFN) []frameRun {
	if k := len(runs) - 1; k >= 0 && pfn == runs[k].base+arch.PFN(runs[k].n) {
		runs[k].n++
		return runs
	}
	return append(runs, frameRun{base: pfn, n: 1})
}

// forkCopy is fork's copy phase: each present leaf of the parent is
// write-protected, its frame shared, and the page mapped read-only into the
// child, one leaf at a time through the span-cached cursors (one
// upper-level walk per 2 MiB). It returns the number of leaves copied and
// the reference counts taken, which a failed copy must return.
func (p *Process) forkCopy(child *Process) (leaves int, taken []frameRun, err error) {
	k := p.K
	prm := k.plat.Params()
	// Range hands the callback a copy of each entry, and Protect rewrites
	// only that leaf, so the walk sees every leaf as it was before the fork.
	// Working inside the callback keeps no slice of the parent's leaves.
	p.GPT.Range(func(va arch.VA, e pagetable.Entry) bool {
		if e.Flags.Has(pagetable.Writable) {
			p.CPU.AdvanceLazy(prm.PTEWrite)
			p.gptMapper.Protect(va, e.Flags&^pagetable.Writable) // traps if shadowed
		}
		if err = k.GPA.Share(e.PFN); err != nil {
			return false
		}
		taken = extendRuns(taken, e.PFN)
		p.CPU.AdvanceLazy(prm.PTEWrite)
		if _, err = child.gptMapper.Map(va, e.PFN, (e.Flags&^pagetable.Writable)&^(pagetable.Accessed|pagetable.Dirty)); err != nil {
			return false
		}
		leaves++
		return true
	})
	return leaves, taken, err
}

// abortFork unwinds a failed fork copy: the half-built child table tree is
// destroyed (returning its table frames) and the reference counts the copy
// took are released. The parent keeps any COW write-protections already
// applied — harmless, since a sole-owner write fault re-enables the page in
// place. The child was never registered with the platform or entered into
// the process table; its PID is simply consumed, as a failed real fork
// consumes one.
func (p *Process) abortFork(child *Process, taken []frameRun) error {
	child.gptMapper.Reset()
	if err := child.GPT.Destroy(); err != nil {
		return err
	}
	for _, r := range taken {
		if err := p.K.GPA.FreeRun(r.base, r.n); err != nil {
			return err
		}
	}
	return nil
}

// forkError wraps a copy-phase error with the outcome of the unwind, so an
// unwind failure (a simulator bug) is never silently swallowed.
func forkError(err, unwindErr error) error {
	if unwindErr != nil {
		return fmt.Errorf("%w (fork unwind failed: %v)", err, unwindErr)
	}
	return err
}
