package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/guest"
)

// The ranged VMA-mutation fast lane (structural munmap/mprotect sweeps with
// batched refcounting, deferred TLB zaps, and the one-pass dirty-log arming
// sweep) must be observationally identical to the per-page reference loops
// it replaces. These tests run every backend × workload cell both ways —
// fast lane on (the default) and off (guest.SetVMABypass) — and compare the
// full Observation bit for bit, exactly as the lifecycle grid does for
// fork/teardown.

// vmaWorkloads stress the paths that differ between the lanes: mprotect
// storms (permission flips over whole areas, each store trapping under
// shadow paging), partial munmaps that shrink and split areas, munmap-
// refault cycles (unmap, then fault the same range back in), mutation
// ranges straddling 2 MiB leaf-table boundaries with sparse residency, and
// dirty-log epochs whose arming sweeps run the batched write-protect pass.
var vmaWorkloads = []struct {
	name string
	body func(p *guest.Process, touch touchFn)
}{
	{"mprotect-storm", func(p *guest.Process, touch touchFn) {
		const n = 600 // > 1 leaf table
		base := p.Mmap(n)
		touch(p, base, n, true)
		for round := 0; round < 3; round++ {
			if err := p.Mprotect(base, n, false); err != nil {
				panic(err)
			}
			touch(p, base, n/2, false)
			if err := p.Mprotect(base, n, true); err != nil {
				panic(err)
			}
			touch(p, base, n/4, true) // re-dirty a prefix
		}
	}},
	{"partial-munmap", func(p *guest.Process, touch touchFn) {
		const n = 520
		base := p.Mmap(n)
		touch(p, base, n, true)
		// Middle cut splits the area; head/tail cuts shrink the remnants.
		if err := p.Munmap(base+100*arch.PageSize, 300); err != nil {
			panic(err)
		}
		touch(p, base, 100, true)
		if err := p.Munmap(base, 60); err != nil {
			panic(err)
		}
		if err := p.Munmap(base+460*arch.PageSize, 60); err != nil {
			panic(err)
		}
		touch(p, base+60*arch.PageSize, 40, false)
	}},
	{"munmap-refault", func(p *guest.Process, touch touchFn) {
		for round := 0; round < 3; round++ {
			base := p.Mmap(256)
			touch(p, base, 256, true)
			touch(p, base, 256, false)
			if err := p.Munmap(base, 256); err != nil {
				panic(err)
			}
			// The next area reuses freed frames; refault the whole path.
			b2 := p.Mmap(256)
			touch(p, b2, 128, true)
			if err := p.Munmap(b2, 256); err != nil {
				panic(err)
			}
		}
	}},
	{"large-page-boundary", func(p *guest.Process, touch touchFn) {
		// One area spanning several 2 MiB leaf tables, sparsely resident
		// (only every other 128-page stripe touched), mutated over ranges
		// whose ends land mid-table — the walker's boundary clamps and
		// empty-run skips against the reference's per-page probes.
		const n = 1536
		base := p.Mmap(n)
		for s := 0; s < n; s += 256 {
			touch(p, base+arch.VA(s)*arch.PageSize, 128, true)
		}
		if err := p.Mprotect(base, n, false); err != nil {
			panic(err)
		}
		if err := p.Mprotect(base, n, true); err != nil {
			panic(err)
		}
		if err := p.Munmap(base+300*arch.PageSize, 700); err != nil {
			panic(err)
		}
		touch(p, base, 128, true)
	}},
	{"dirty-log-epoch", func(p *guest.Process, touch touchFn) {
		const n = 300
		base := p.Mmap(n)
		touch(p, base, n, true)
		p.StartDirtyLog() // arming sweep: the one-pass write-protect
		touch(p, base, n/2, true)
		p.CollectDirty() // epoch re-arm: another sweep
		touch(p, base+arch.VA(n/2)*arch.PageSize, n/2, true)
		if err := p.Munmap(base+arch.VA(n/4)*arch.PageSize, n/4); err != nil {
			panic(err)
		}
		p.CollectDirty()
		p.StopDirtyLog()
		touch(p, base, n/4, true)
	}},
}

// observeVMA runs one cell with the ranged-mutation fast lane on or off.
func observeVMA(t *testing.T, cfg backend.Config, opt backend.Options, body func(p *guest.Process, touch touchFn), perPage bool) check.Observation {
	t.Helper()
	if perPage {
		guest.SetVMABypass(true)
		defer guest.SetVMABypass(false)
	}
	return observe(t, cfg, opt, body, touchRanged)
}

// TestVMAMutationEquivalence runs every config × VMA workload cell with the
// structural fast lane and the per-page reference and requires bit-identical
// outcomes.
func TestVMAMutationEquivalence(t *testing.T) {
	for _, cfg := range backend.Configs() {
		for _, wl := range vmaWorkloads {
			cell := fmt.Sprintf("%v/%s", cfg, wl.name)
			t.Run(cell, func(t *testing.T) {
				fast := observeVMA(t, cfg, backend.DefaultOptions(), wl.body, false)
				perPage := observeVMA(t, cfg, backend.DefaultOptions(), wl.body, true)
				if d := check.Diff(fast, perPage); d != "" {
					t.Errorf("%s: structural vs per-page diverged: %s", cell, d)
				}
			})
		}
	}
}

// TestVMAMutationEquivalenceAblations covers the option variants with
// distinct PTE-store trap and flush choreographies: direct paging (sync log
// instead of per-store traps), collaborative sync, huge-page EPT backing,
// PCID mapping off (whole-VPID shootdowns), coarse locking, and KPTI off.
func TestVMAMutationEquivalenceAblations(t *testing.T) {
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
		{"collab-sync", backend.PVMNST, mk(func(o *backend.Options) { o.CollaborativeSync = true })},
		{"hugepages-ept", backend.KVMEPTNST, mk(func(o *backend.Options) { o.HugePagesEPT = true })},
		{"no-pcidmap", backend.PVMNST, mk(func(o *backend.Options) { o.PCIDMap = false })},
		{"coarse-lock", backend.PVMNST, mk(func(o *backend.Options) { o.FineLock = false })},
		{"no-kpti", backend.KVMSPTBM, mk(func(o *backend.Options) { o.KPTI = false })},
	}
	for _, v := range variants {
		for _, wl := range vmaWorkloads {
			cell := fmt.Sprintf("%s/%s", v.name, wl.name)
			t.Run(cell, func(t *testing.T) {
				fast := observeVMA(t, v.cfg, v.opt, wl.body, false)
				perPage := observeVMA(t, v.cfg, v.opt, wl.body, true)
				if d := check.Diff(fast, perPage); d != "" {
					t.Errorf("%s: structural vs per-page diverged: %s", cell, d)
				}
			})
		}
	}
}

// TestVMAMutationEquivalenceMultiProc checks the lanes under concurrent
// vCPUs, where the mutation traps' lock holds and the flush shootdowns
// couple the clocks: a misplaced gate or charge in either lane would shift
// the global makespan.
func TestVMAMutationEquivalenceMultiProc(t *testing.T) {
	run := func(cfg backend.Config, perPage bool) check.Observation {
		if perPage {
			guest.SetVMABypass(true)
			defer guest.SetVMABypass(false)
		}
		opt := backend.DefaultOptions()
		opt.TraceEvents = 1 << 15
		s := backend.NewSystem(cfg, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			g.Run(0, 8, func(p *guest.Process) {
				for round := 0; round < 2; round++ {
					base := p.Mmap(160)
					p.TouchRange(base, 160, true)
					if err := p.Mprotect(base, 160, false); err != nil {
						panic(err)
					}
					if err := p.Mprotect(base, 160, true); err != nil {
						panic(err)
					}
					if err := p.Munmap(base+40*arch.PageSize, 80); err != nil {
						panic(err)
					}
					p.TouchRange(base, 40, true)
					if err := p.Munmap(base, 40); err != nil {
						panic(err)
					}
					if err := p.Munmap(base+120*arch.PageSize, 40); err != nil {
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
			fast := run(cfg, false)
			perPage := run(cfg, true)
			if d := check.Diff(fast, perPage); d != "" {
				t.Errorf("%v: structural vs per-page diverged: %s", cfg, d)
			}
		})
	}
}
