package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/guest"
	"repro/internal/vclock"
)

// The ranged access fast path (Guest.AccessRange) must be observationally
// identical to the per-page loop it replaces. These tests run every backend ×
// workload cell both ways and hand the outcomes to the shared oracle in
// internal/check, which compares final clocks, makespan, the full metrics
// snapshot, and the trace-ring digest bit for bit.

// touchFn abstracts over TouchRange (batched) and TouchRangeByPage
// (per-page reference).
type touchFn func(p *guest.Process, va arch.VA, pages int, write bool)

func touchRanged(p *guest.Process, va arch.VA, pages int, write bool) {
	p.TouchRange(va, pages, write)
}

func touchByPage(p *guest.Process, va arch.VA, pages int, write bool) {
	p.TouchRangeByPage(va, pages, write)
}

// equivWorkloads are single-process workloads exercising the access paths
// that differ across backends: faulting, resident re-touch with TLB
// evictions (stream is larger than the 1536-entry TLB), COW breaks,
// protection faults, and munmap/refault cycles.
var equivWorkloads = []struct {
	name string
	body func(p *guest.Process, touch touchFn)
}{
	{"stream", func(p *guest.Process, touch touchFn) {
		// Larger than the TLB: the read passes exercise hit runs
		// broken by capacity evictions.
		const n = 2000
		base := p.Mmap(n)
		touch(p, base, n, true)
		touch(p, base, n, false)
		touch(p, base, n, false)
	}},
	{"fork-cow", func(p *guest.Process, touch touchFn) {
		const n = 64
		base := p.Mmap(n)
		touch(p, base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		touch(child, base, n, true) // COW breaks
		if err := child.Exit(); err != nil {
			panic(err)
		}
		touch(p, base, n, true) // parent re-protect faults
	}},
	{"mprotect", func(p *guest.Process, touch touchFn) {
		const n = 128
		base := p.Mmap(n)
		touch(p, base, n, true)
		if err := p.Mprotect(base, n, false); err != nil {
			panic(err)
		}
		touch(p, base, n, false)
		if err := p.Mprotect(base, n, true); err != nil {
			panic(err)
		}
		touch(p, base, n, true) // write-protection fixes
	}},
	{"mixed", func(p *guest.Process, touch touchFn) {
		for round := 0; round < 4; round++ {
			base := p.Mmap(96)
			touch(p, base, 96, true)
			p.Syscall(500)
			touch(p, base, 96, false)
			if err := p.Munmap(base, 96); err != nil {
				panic(err)
			}
		}
	}},
}

func observe(t *testing.T, cfg backend.Config, opt backend.Options, body func(p *guest.Process, touch touchFn), touch touchFn) check.Observation {
	t.Helper()
	opt.TraceEvents = 1 << 15
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.StartProcess(c, 8)
		if err != nil {
			panic(err)
		}
		body(p, touch)
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Wait()
	if err := s.Eng.Err(); err != nil {
		t.Fatal(err)
	}
	return check.Capture(s)
}

// TestRangedAccessEquivalence runs every config × workload cell with the
// batched and per-page touch paths and requires bit-identical outcomes.
func TestRangedAccessEquivalence(t *testing.T) {
	for _, cfg := range backend.Configs() {
		for _, wl := range equivWorkloads {
			cell := fmt.Sprintf("%v/%s", cfg, wl.name)
			t.Run(cell, func(t *testing.T) {
				ranged := observe(t, cfg, backend.DefaultOptions(), wl.body, touchRanged)
				byPage := observe(t, cfg, backend.DefaultOptions(), wl.body, touchByPage)
				if d := check.Diff(ranged, byPage); d != "" {
					t.Errorf("%s: ranged vs per-page diverged: %s", cell, d)
				}
			})
		}
	}
}

// TestRangedAccessEquivalenceAblations covers the option variants that pick
// different MMU strategies or fault choreographies: direct paging (the fifth
// MMU), prefault off, PCID mapping off, collaborative sync, switcher fault
// classification, coarse locking.
func TestRangedAccessEquivalenceAblations(t *testing.T) {
	mk := func(mut func(o *backend.Options)) backend.Options {
		o := backend.DefaultOptions()
		mut(&o)
		return o
	}
	variants := []struct {
		name string
		cfg  backend.Config
		opt  backend.Options
	}{
		{"pvm-direct-bm", backend.PVMBM, mk(func(o *backend.Options) { o.DirectPaging = true })},
		{"pvm-direct-nst", backend.PVMNST, mk(func(o *backend.Options) { o.DirectPaging = true })},
		{"no-prefault", backend.PVMNST, mk(func(o *backend.Options) { o.Prefault = false })},
		{"no-pcidmap", backend.PVMNST, mk(func(o *backend.Options) { o.PCIDMap = false })},
		{"collab-sync", backend.PVMNST, mk(func(o *backend.Options) { o.CollaborativeSync = true })},
		{"switcher-classify", backend.PVMNST, mk(func(o *backend.Options) { o.SwitcherFaultClassify = true })},
		{"coarse-lock", backend.PVMNST, mk(func(o *backend.Options) { o.FineLock = false })},
		{"no-kpti", backend.KVMSPTBM, mk(func(o *backend.Options) { o.KPTI = false })},
	}
	for _, v := range variants {
		for _, wl := range equivWorkloads {
			cell := fmt.Sprintf("%s/%s", v.name, wl.name)
			t.Run(cell, func(t *testing.T) {
				ranged := observe(t, v.cfg, v.opt, wl.body, touchRanged)
				byPage := observe(t, v.cfg, v.opt, wl.body, touchByPage)
				if d := check.Diff(ranged, byPage); d != "" {
					t.Errorf("%s: ranged vs per-page diverged: %s", cell, d)
				}
			})
		}
	}
}

// TestRangedAccessEquivalenceMultiProc checks the batched path under
// concurrent vCPUs, where lock hold times and shootdowns couple the clocks:
// any divergence in one vCPU's charging would shift the global makespan.
func TestRangedAccessEquivalenceMultiProc(t *testing.T) {
	run := func(cfg backend.Config, touch touchFn) check.Observation {
		opt := backend.DefaultOptions()
		opt.TraceEvents = 1 << 15
		s := backend.NewSystem(cfg, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			g.Run(0, 8, func(p *guest.Process) {
				for round := 0; round < 3; round++ {
					base := p.Mmap(128)
					touch(p, base, 128, true)
					touch(p, base, 128, false)
					if err := p.Munmap(base, 128); err != nil {
						panic(err)
					}
				}
			})
		}
		s.Eng.Wait()
		if err := s.Eng.Err(); err != nil {
			t.Fatal(err)
		}
		return check.Capture(s)
	}
	for _, cfg := range backend.Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			ranged := run(cfg, touchRanged)
			byPage := run(cfg, touchByPage)
			if d := check.Diff(ranged, byPage); d != "" {
				t.Errorf("%v: ranged vs per-page diverged: %s", cfg, d)
			}
		})
	}
}
