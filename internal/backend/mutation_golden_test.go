package backend_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/guest"
)

// Fork, exec/exit teardown, munmap, mprotect and dirty-log arming each have
// one implementation: a per-leaf (per-page) loop that charges one PTE store
// per affected leaf in ascending VA order. These tests pin that loop's full
// observable outcome — clocks, makespan, every counter, the trace digest —
// for every backend × workload cell against goldenDigests, recorded from a
// tree that still carried structural fast lanes for the same operations and
// agreed with the per-leaf loop on every cell. A change to the mutation
// paths that moves any observable, even in a cell no other test visits,
// fails here.

// lifecycleWorkloads stress fork's COW protect/share/map choreography
// (trapping per store under shadow paging), repeated fork+exit (shared-frame
// teardown, rc>1), exec teardown + refault, fork chains (grandchildren,
// rc>2), sparse images (munmap leaves leaf-empty intermediate tables the
// child must not inherit), and post-fork mprotect (COW-aware permission
// flips on shared frames).
var lifecycleWorkloads = []struct {
	name string
	body func(p *guest.Process)
}{
	{"fork-exit", func(p *guest.Process) {
		const n = 256
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		for i := 0; i < 3; i++ {
			child, err := p.Fork(nil)
			if err != nil {
				panic(err)
			}
			child.TouchRange(base, n/4, true) // COW breaks in the child
			if err := child.Exit(); err != nil {
				panic(err)
			}
			p.TouchRange(base, n/8, true) // parent re-protect faults
		}
	}},
	{"fork-chain", func(p *guest.Process) {
		const n = 96
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		grand, err := child.Fork(nil) // rc reaches 3 on shared frames
		if err != nil {
			panic(err)
		}
		grand.TouchRange(base, n, true)
		if err := grand.Exit(); err != nil {
			panic(err)
		}
		child.TouchRange(base, n/2, false)
		if err := child.Exit(); err != nil {
			panic(err)
		}
		p.TouchRange(base, n, true)
	}},
	{"exec", func(p *guest.Process) {
		base := p.Mmap(200)
		p.TouchRange(base, 200, true)
		if err := p.Exec(64); err != nil { // teardown + fresh image
			panic(err)
		}
		base = p.Mmap(32)
		p.TouchRange(base, 32, true)
	}},
	{"fork-exec", func(p *guest.Process) {
		const n = 128
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		// Exec in the child tears down an address space whose frames are
		// all shared with the parent (rc>1 throughout the teardown).
		if err := child.Exec(16); err != nil {
			panic(err)
		}
		if err := child.Exit(); err != nil {
			panic(err)
		}
		p.TouchRange(base, n, true)
	}},
	{"sparse-fork", func(p *guest.Process) {
		// Several areas, the middle ones unmapped, so the parent's table
		// tree holds leaf-empty intermediate tables.
		var bases []arch.VA
		for i := 0; i < 4; i++ {
			b := p.Mmap(700) // >1 leaf table per area
			p.TouchRange(b, 700, true)
			bases = append(bases, b)
		}
		if err := p.Munmap(bases[1], 700); err != nil {
			panic(err)
		}
		if err := p.Munmap(bases[2], 700); err != nil {
			panic(err)
		}
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		child.TouchRange(bases[3], 700, true)
		if err := child.Exit(); err != nil {
			panic(err)
		}
	}},
	{"fork-mprotect", func(p *guest.Process) {
		const n = 64
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		// Post-fork mprotect flips permissions over COW-shared frames; the
		// write-enable pass must skip shared frames.
		if err := p.Mprotect(base, n, false); err != nil {
			panic(err)
		}
		if err := p.Mprotect(base, n, true); err != nil {
			panic(err)
		}
		p.TouchRange(base, n, true)
		if err := child.Exit(); err != nil {
			panic(err)
		}
		p.TouchRange(base, n, true)
	}},
}

// vmaWorkloads stress mprotect storms (permission flips over whole areas,
// each store trapping under shadow paging), partial munmaps that shrink and
// split areas, munmap-refault cycles, mutation ranges straddling 2 MiB
// leaf-table boundaries with sparse residency, and dirty-log epochs whose
// arming sweeps write-protect every logged leaf.
var vmaWorkloads = []struct {
	name string
	body func(p *guest.Process)
}{
	{"mprotect-storm", func(p *guest.Process) {
		const n = 600 // > 1 leaf table
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		for round := 0; round < 3; round++ {
			if err := p.Mprotect(base, n, false); err != nil {
				panic(err)
			}
			p.TouchRange(base, n/2, false)
			if err := p.Mprotect(base, n, true); err != nil {
				panic(err)
			}
			p.TouchRange(base, n/4, true) // re-dirty a prefix
		}
	}},
	{"partial-munmap", func(p *guest.Process) {
		const n = 520
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		// Middle cut splits the area; head/tail cuts shrink the remnants.
		if err := p.Munmap(base+100*arch.PageSize, 300); err != nil {
			panic(err)
		}
		p.TouchRange(base, 100, true)
		if err := p.Munmap(base, 60); err != nil {
			panic(err)
		}
		if err := p.Munmap(base+460*arch.PageSize, 60); err != nil {
			panic(err)
		}
		p.TouchRange(base+60*arch.PageSize, 40, false)
	}},
	{"munmap-refault", func(p *guest.Process) {
		for round := 0; round < 3; round++ {
			base := p.Mmap(256)
			p.TouchRange(base, 256, true)
			p.TouchRange(base, 256, false)
			if err := p.Munmap(base, 256); err != nil {
				panic(err)
			}
			// The next area reuses freed frames; refault the whole path.
			b2 := p.Mmap(256)
			p.TouchRange(b2, 128, true)
			if err := p.Munmap(b2, 256); err != nil {
				panic(err)
			}
		}
	}},
	{"large-page-boundary", func(p *guest.Process) {
		// One area spanning several 2 MiB leaf tables, sparsely resident
		// (every other 128-page stripe touched), mutated over ranges whose
		// ends land mid-table.
		const n = 1536
		base := p.Mmap(n)
		for s := 0; s < n; s += 256 {
			p.TouchRange(base+arch.VA(s)*arch.PageSize, 128, true)
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
		p.TouchRange(base, 128, true)
	}},
	{"dirty-log-epoch", func(p *guest.Process) {
		const n = 300
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		p.StartDirtyLog() // arming sweep
		p.TouchRange(base, n/2, true)
		p.CollectDirty() // epoch re-arm: another sweep
		p.TouchRange(base+arch.VA(n/2)*arch.PageSize, n/2, true)
		if err := p.Munmap(base+arch.VA(n/4)*arch.PageSize, n/4); err != nil {
			panic(err)
		}
		p.CollectDirty()
		p.StopDirtyLog()
		p.TouchRange(base, n/4, true)
	}},
}

// mutationAblations are the option variants with distinct PTE-store trap and
// flush choreographies: direct paging (lazy charges plus a sync log instead
// of per-store traps), collaborative sync (lazy shadow sync log), huge-page
// EPT backing, PCID mapping off (full shootdown on the flush), coarse
// locking, and KPTI off.
func mutationAblations() []struct {
	name string
	cfg  backend.Config
	opt  backend.Options
} {
	mk := func(mut func(o *backend.Options)) backend.Options {
		o := backend.DefaultOptions()
		mut(&o)
		return o
	}
	return []struct {
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
}

// observeMultiProc runs body on four concurrent vCPUs of one guest, where
// flush shootdowns, trap lock holds and the shared allocator couple the
// clocks: a misplaced gate or charge would shift the global makespan.
func observeMultiProc(t *testing.T, cfg backend.Config, body func(p *guest.Process)) check.Observation {
	t.Helper()
	opt := backend.DefaultOptions()
	opt.TraceEvents = 1 << 15
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		g.Run(0, 8, body)
	}
	s.Eng.Wait()
	if err := s.Eng.Err(); err != nil {
		t.Fatal(err)
	}
	return check.Capture(s)
}

// observeCell runs a single-process workload cell.
func observeCell(t *testing.T, cfg backend.Config, opt backend.Options, body func(p *guest.Process)) check.Observation {
	t.Helper()
	return observe(t, cfg, opt, func(p *guest.Process, _ touchFn) { body(p) }, touchRanged)
}

// fingerprint folds every observable check.Diff compares into one value.
// Counters are folded by name and only when nonzero, so adding a counter
// that these workloads never move leaves the recorded digests valid.
func fingerprint(o check.Observation) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %v %d %d %x %d %x\n", o.Makespan, o.Clocks, o.Events, o.Dropped, o.Digest, o.DirtyPages, o.DirtyDigest)
	m := reflect.ValueOf(o.Metrics)
	for i := 0; i < m.NumField(); i++ {
		if f := m.Field(i); !f.IsZero() {
			fmt.Fprintf(h, "%s=%v\n", m.Type().Field(i).Name, f.Interface())
		}
	}
	return h.Sum64()
}

// assertGolden compares the cell's observation with its recorded digest,
// keyed by the subtest's full name.
func assertGolden(t *testing.T, o check.Observation) {
	t.Helper()
	want, ok := goldenDigests[t.Name()]
	if !ok {
		t.Fatalf("no recorded digest for %s", t.Name())
	}
	if got := fingerprint(o); got != want {
		t.Errorf("observables moved: fingerprint %#016x, recorded %#016x (makespan %d, trace digest %#x)",
			got, want, o.Makespan, o.Digest)
	}
}

// TestForkTeardownEquivalence pins fork, exec and exit on every config.
func TestForkTeardownEquivalence(t *testing.T) {
	for _, cfg := range backend.Configs() {
		for _, wl := range lifecycleWorkloads {
			t.Run(fmt.Sprintf("%v/%s", cfg, wl.name), func(t *testing.T) {
				assertGolden(t, observeCell(t, cfg, backend.DefaultOptions(), wl.body))
			})
		}
	}
}

// TestForkTeardownEquivalenceAblations pins the lifecycle workloads under
// the option variants.
func TestForkTeardownEquivalenceAblations(t *testing.T) {
	for _, v := range mutationAblations() {
		for _, wl := range lifecycleWorkloads {
			t.Run(v.name+"/"+wl.name, func(t *testing.T) {
				assertGolden(t, observeCell(t, v.cfg, v.opt, wl.body))
			})
		}
	}
}

// TestForkTeardownEquivalenceMultiProc pins fork/exit/munmap rounds on four
// concurrent vCPUs.
func TestForkTeardownEquivalenceMultiProc(t *testing.T) {
	for _, cfg := range backend.Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			assertGolden(t, observeMultiProc(t, cfg, func(p *guest.Process) {
				for round := 0; round < 2; round++ {
					base := p.Mmap(128)
					p.TouchRange(base, 128, true)
					child, err := p.Fork(nil)
					if err != nil {
						panic(err)
					}
					p.TouchRange(base, 32, true)
					if err := child.Exit(); err != nil {
						panic(err)
					}
					if err := p.Munmap(base, 128); err != nil {
						panic(err)
					}
				}
			}))
		})
	}
}

// TestVMAMutationEquivalence pins munmap, mprotect and dirty-log arming on
// every config.
func TestVMAMutationEquivalence(t *testing.T) {
	for _, cfg := range backend.Configs() {
		for _, wl := range vmaWorkloads {
			t.Run(fmt.Sprintf("%v/%s", cfg, wl.name), func(t *testing.T) {
				assertGolden(t, observeCell(t, cfg, backend.DefaultOptions(), wl.body))
			})
		}
	}
}

// TestVMAMutationEquivalenceAblations pins the VMA workloads under the
// option variants.
func TestVMAMutationEquivalenceAblations(t *testing.T) {
	for _, v := range mutationAblations() {
		for _, wl := range vmaWorkloads {
			t.Run(v.name+"/"+wl.name, func(t *testing.T) {
				assertGolden(t, observeCell(t, v.cfg, v.opt, wl.body))
			})
		}
	}
}

// TestVMAMutationEquivalenceMultiProc pins mprotect/munmap rounds on four
// concurrent vCPUs.
func TestVMAMutationEquivalenceMultiProc(t *testing.T) {
	for _, cfg := range backend.Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			assertGolden(t, observeMultiProc(t, cfg, func(p *guest.Process) {
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
			}))
		})
	}
}

// goldenDigests are the fingerprints of every cell above, recorded while the
// per-leaf loops and the structural lanes they replaced still ran side by
// side and agreed bit for bit on each cell.
var goldenDigests = map[string]uint64{
	"TestForkTeardownEquivalence/kvm-ept_(BM)/fork-exit":                     0xa1548e8e65c11780,
	"TestForkTeardownEquivalence/kvm-ept_(BM)/fork-chain":                    0xdfad45ad58df9609,
	"TestForkTeardownEquivalence/kvm-ept_(BM)/exec":                          0x6bba4dfc6f3e4401,
	"TestForkTeardownEquivalence/kvm-ept_(BM)/fork-exec":                     0xb61241f93e818cd4,
	"TestForkTeardownEquivalence/kvm-ept_(BM)/sparse-fork":                   0x1a2886f699bca578,
	"TestForkTeardownEquivalence/kvm-ept_(BM)/fork-mprotect":                 0x62e09c0a30a469ee,
	"TestForkTeardownEquivalence/kvm-spt_(BM)/fork-exit":                     0xccd611c23d510b10,
	"TestForkTeardownEquivalence/kvm-spt_(BM)/fork-chain":                    0x5431415dad0d4e06,
	"TestForkTeardownEquivalence/kvm-spt_(BM)/exec":                          0x95059a6e0c032bd3,
	"TestForkTeardownEquivalence/kvm-spt_(BM)/fork-exec":                     0xcccaf1d00cc7657c,
	"TestForkTeardownEquivalence/kvm-spt_(BM)/sparse-fork":                   0x10262c1cd95e5dc6,
	"TestForkTeardownEquivalence/kvm-spt_(BM)/fork-mprotect":                 0xc94005b6b212038b,
	"TestForkTeardownEquivalence/pvm_(BM)/fork-exit":                         0xbaf4e8db35680f84,
	"TestForkTeardownEquivalence/pvm_(BM)/fork-chain":                        0xe3aa4db4a13f16fc,
	"TestForkTeardownEquivalence/pvm_(BM)/exec":                              0x5dbf8b4027b3e243,
	"TestForkTeardownEquivalence/pvm_(BM)/fork-exec":                         0x411c1c46f62e4e5a,
	"TestForkTeardownEquivalence/pvm_(BM)/sparse-fork":                       0xd0c8981c95b38980,
	"TestForkTeardownEquivalence/pvm_(BM)/fork-mprotect":                     0x2beb5bfec8c30987,
	"TestForkTeardownEquivalence/kvm-ept_(NST)/fork-exit":                    0x3df586b0f88150f0,
	"TestForkTeardownEquivalence/kvm-ept_(NST)/fork-chain":                   0x09917525e1814b02,
	"TestForkTeardownEquivalence/kvm-ept_(NST)/exec":                         0x3cd927672ffafa70,
	"TestForkTeardownEquivalence/kvm-ept_(NST)/fork-exec":                    0x517487436e04d51f,
	"TestForkTeardownEquivalence/kvm-ept_(NST)/sparse-fork":                  0x1a6a6858714084ba,
	"TestForkTeardownEquivalence/kvm-ept_(NST)/fork-mprotect":                0x48cfb1f7b1dd40c2,
	"TestForkTeardownEquivalence/spt-on-ept_(NST)/fork-exit":                 0x888fa89b40893615,
	"TestForkTeardownEquivalence/spt-on-ept_(NST)/fork-chain":                0x7b798991d3a335c8,
	"TestForkTeardownEquivalence/spt-on-ept_(NST)/exec":                      0x90268254fa95bc88,
	"TestForkTeardownEquivalence/spt-on-ept_(NST)/fork-exec":                 0x4d3c8217d49e4392,
	"TestForkTeardownEquivalence/spt-on-ept_(NST)/sparse-fork":               0x13b3b0d872a536a8,
	"TestForkTeardownEquivalence/spt-on-ept_(NST)/fork-mprotect":             0xb8b05080aec4fb16,
	"TestForkTeardownEquivalence/pvm_(NST)/fork-exit":                        0x722a2078cc038390,
	"TestForkTeardownEquivalence/pvm_(NST)/fork-chain":                       0xff0de3334a64a4d1,
	"TestForkTeardownEquivalence/pvm_(NST)/exec":                             0x99ab697468936323,
	"TestForkTeardownEquivalence/pvm_(NST)/fork-exec":                        0x1646ed10f8d3c5fd,
	"TestForkTeardownEquivalence/pvm_(NST)/sparse-fork":                      0xf99aad5a84ca104a,
	"TestForkTeardownEquivalence/pvm_(NST)/fork-mprotect":                    0xb0631dac24250445,
	"TestForkTeardownEquivalenceAblations/pvm-direct-bm/fork-exit":           0x75ee18dbd979902d,
	"TestForkTeardownEquivalenceAblations/pvm-direct-bm/fork-chain":          0x20f8fb39662d5d44,
	"TestForkTeardownEquivalenceAblations/pvm-direct-bm/exec":                0x538a265a0906d9b6,
	"TestForkTeardownEquivalenceAblations/pvm-direct-bm/fork-exec":           0x4f21e84293d874a5,
	"TestForkTeardownEquivalenceAblations/pvm-direct-bm/sparse-fork":         0x053674942357fa52,
	"TestForkTeardownEquivalenceAblations/pvm-direct-bm/fork-mprotect":       0x44bd552838271947,
	"TestForkTeardownEquivalenceAblations/pvm-direct-nst/fork-exit":          0x7db577f04e93338a,
	"TestForkTeardownEquivalenceAblations/pvm-direct-nst/fork-chain":         0xa3927d4e388ccd7c,
	"TestForkTeardownEquivalenceAblations/pvm-direct-nst/exec":               0x5eb416e711ddfef8,
	"TestForkTeardownEquivalenceAblations/pvm-direct-nst/fork-exec":          0x1cb4b32cd0871002,
	"TestForkTeardownEquivalenceAblations/pvm-direct-nst/sparse-fork":        0x465e77b1a4c4a5af,
	"TestForkTeardownEquivalenceAblations/pvm-direct-nst/fork-mprotect":      0x24f0c57d79395980,
	"TestForkTeardownEquivalenceAblations/collab-sync/fork-exit":             0xbf3a0a5c0ce8655a,
	"TestForkTeardownEquivalenceAblations/collab-sync/fork-chain":            0x3c0ff40444481031,
	"TestForkTeardownEquivalenceAblations/collab-sync/exec":                  0x4e8995710c6c5b98,
	"TestForkTeardownEquivalenceAblations/collab-sync/fork-exec":             0xd5bb6c93502c3627,
	"TestForkTeardownEquivalenceAblations/collab-sync/sparse-fork":           0xf8b1db8c8c90addc,
	"TestForkTeardownEquivalenceAblations/collab-sync/fork-mprotect":         0x54a2c9752677e5ff,
	"TestForkTeardownEquivalenceAblations/hugepages-ept/fork-exit":           0x868a29fab34556e0,
	"TestForkTeardownEquivalenceAblations/hugepages-ept/fork-chain":          0x41874a822f512542,
	"TestForkTeardownEquivalenceAblations/hugepages-ept/exec":                0xcfc1e035b990edf3,
	"TestForkTeardownEquivalenceAblations/hugepages-ept/fork-exec":           0x0ab80841098fd8f9,
	"TestForkTeardownEquivalenceAblations/hugepages-ept/sparse-fork":         0x6162311670d0ef78,
	"TestForkTeardownEquivalenceAblations/hugepages-ept/fork-mprotect":       0xee1c199036eba13a,
	"TestForkTeardownEquivalenceAblations/no-pcidmap/fork-exit":              0x51566be310f2ffba,
	"TestForkTeardownEquivalenceAblations/no-pcidmap/fork-chain":             0x9616ba14be498add,
	"TestForkTeardownEquivalenceAblations/no-pcidmap/exec":                   0xeb3c73c89723cd92,
	"TestForkTeardownEquivalenceAblations/no-pcidmap/fork-exec":              0x5ca06aa6e0504678,
	"TestForkTeardownEquivalenceAblations/no-pcidmap/sparse-fork":            0xab6b56ac0141ee75,
	"TestForkTeardownEquivalenceAblations/no-pcidmap/fork-mprotect":          0x8411c245876a183b,
	"TestForkTeardownEquivalenceAblations/coarse-lock/fork-exit":             0x307100e2d4fa070b,
	"TestForkTeardownEquivalenceAblations/coarse-lock/fork-chain":            0xfcc045e5cca70c3b,
	"TestForkTeardownEquivalenceAblations/coarse-lock/exec":                  0xf33226cd231d2f88,
	"TestForkTeardownEquivalenceAblations/coarse-lock/fork-exec":             0xd0ff3dc762657355,
	"TestForkTeardownEquivalenceAblations/coarse-lock/sparse-fork":           0x91bd3e54893c08c7,
	"TestForkTeardownEquivalenceAblations/coarse-lock/fork-mprotect":         0xfb868dc1ccaabafc,
	"TestForkTeardownEquivalenceAblations/no-kpti/fork-exit":                 0x223b662b27020968,
	"TestForkTeardownEquivalenceAblations/no-kpti/fork-chain":                0x314066342fdc1f3c,
	"TestForkTeardownEquivalenceAblations/no-kpti/exec":                      0x68ff3ce24252ad19,
	"TestForkTeardownEquivalenceAblations/no-kpti/fork-exec":                 0x187ac34a03dc4d80,
	"TestForkTeardownEquivalenceAblations/no-kpti/sparse-fork":               0x25bc879c3c055cd5,
	"TestForkTeardownEquivalenceAblations/no-kpti/fork-mprotect":             0xf3512c1aab8dbfc4,
	"TestForkTeardownEquivalenceMultiProc/kvm-ept_(BM)":                      0xc51afc32a7b7f10c,
	"TestForkTeardownEquivalenceMultiProc/kvm-spt_(BM)":                      0xf9e8c0fe9212e94a,
	"TestForkTeardownEquivalenceMultiProc/pvm_(BM)":                          0x97609c9a79992703,
	"TestForkTeardownEquivalenceMultiProc/kvm-ept_(NST)":                     0xd4ff1262c1f55f67,
	"TestForkTeardownEquivalenceMultiProc/spt-on-ept_(NST)":                  0x62a9dbbd7526e30b,
	"TestForkTeardownEquivalenceMultiProc/pvm_(NST)":                         0x8d48d1cbdc40382b,
	"TestVMAMutationEquivalence/kvm-ept_(BM)/mprotect-storm":                 0xe8cfd36cf0be75b5,
	"TestVMAMutationEquivalence/kvm-ept_(BM)/partial-munmap":                 0xf7f231b949ad5955,
	"TestVMAMutationEquivalence/kvm-ept_(BM)/munmap-refault":                 0xa4b033a0cdcc5498,
	"TestVMAMutationEquivalence/kvm-ept_(BM)/large-page-boundary":            0xe10328473d61deb4,
	"TestVMAMutationEquivalence/kvm-ept_(BM)/dirty-log-epoch":                0x926f9c9cc12f8ff3,
	"TestVMAMutationEquivalence/kvm-spt_(BM)/mprotect-storm":                 0x56a15434735354ec,
	"TestVMAMutationEquivalence/kvm-spt_(BM)/partial-munmap":                 0x12c2f394aadf9216,
	"TestVMAMutationEquivalence/kvm-spt_(BM)/munmap-refault":                 0xc5d87ed5fc0041f6,
	"TestVMAMutationEquivalence/kvm-spt_(BM)/large-page-boundary":            0x54b33ae63f3402a0,
	"TestVMAMutationEquivalence/kvm-spt_(BM)/dirty-log-epoch":                0x256480263bf276fe,
	"TestVMAMutationEquivalence/pvm_(BM)/mprotect-storm":                     0xf7d50123235a8246,
	"TestVMAMutationEquivalence/pvm_(BM)/partial-munmap":                     0x104405394844fdc9,
	"TestVMAMutationEquivalence/pvm_(BM)/munmap-refault":                     0xd7b2ce9b9dca995a,
	"TestVMAMutationEquivalence/pvm_(BM)/large-page-boundary":                0x5591d37cdd06bcc6,
	"TestVMAMutationEquivalence/pvm_(BM)/dirty-log-epoch":                    0x0a2e17ca4157cf42,
	"TestVMAMutationEquivalence/kvm-ept_(NST)/mprotect-storm":                0x56cc2afea4f328e2,
	"TestVMAMutationEquivalence/kvm-ept_(NST)/partial-munmap":                0x0aa30e8c400276f3,
	"TestVMAMutationEquivalence/kvm-ept_(NST)/munmap-refault":                0xccabe6a753d4512a,
	"TestVMAMutationEquivalence/kvm-ept_(NST)/large-page-boundary":           0xfae344fc3cd8e061,
	"TestVMAMutationEquivalence/kvm-ept_(NST)/dirty-log-epoch":               0x31f34ad334c281f7,
	"TestVMAMutationEquivalence/spt-on-ept_(NST)/mprotect-storm":             0x54160b5315a39360,
	"TestVMAMutationEquivalence/spt-on-ept_(NST)/partial-munmap":             0x32a8afedd6fa7910,
	"TestVMAMutationEquivalence/spt-on-ept_(NST)/munmap-refault":             0x5693a5ecbc7ebe44,
	"TestVMAMutationEquivalence/spt-on-ept_(NST)/large-page-boundary":        0xa4e520eb48fe84a4,
	"TestVMAMutationEquivalence/spt-on-ept_(NST)/dirty-log-epoch":            0x3c9a84e2308ae8f8,
	"TestVMAMutationEquivalence/pvm_(NST)/mprotect-storm":                    0x092688811fa166eb,
	"TestVMAMutationEquivalence/pvm_(NST)/partial-munmap":                    0xa4408d0f80ea033c,
	"TestVMAMutationEquivalence/pvm_(NST)/munmap-refault":                    0xc33c648d90c2aaa3,
	"TestVMAMutationEquivalence/pvm_(NST)/large-page-boundary":               0x8302dbcd0bd9a0aa,
	"TestVMAMutationEquivalence/pvm_(NST)/dirty-log-epoch":                   0xca22939080e2371a,
	"TestVMAMutationEquivalenceAblations/pvm-direct-bm/mprotect-storm":       0xf294ddfc8f503770,
	"TestVMAMutationEquivalenceAblations/pvm-direct-bm/partial-munmap":       0x786f25f6fab6896c,
	"TestVMAMutationEquivalenceAblations/pvm-direct-bm/munmap-refault":       0x5d2cd9083a597914,
	"TestVMAMutationEquivalenceAblations/pvm-direct-bm/large-page-boundary":  0xcdf6a3bca7dfac6e,
	"TestVMAMutationEquivalenceAblations/pvm-direct-bm/dirty-log-epoch":      0xd7360a93b533ec25,
	"TestVMAMutationEquivalenceAblations/pvm-direct-nst/mprotect-storm":      0x68fdc5fe561836a8,
	"TestVMAMutationEquivalenceAblations/pvm-direct-nst/partial-munmap":      0x5c1240eeb6650a88,
	"TestVMAMutationEquivalenceAblations/pvm-direct-nst/munmap-refault":      0xc05e73923dd88db9,
	"TestVMAMutationEquivalenceAblations/pvm-direct-nst/large-page-boundary": 0xf051cd05d050c9c1,
	"TestVMAMutationEquivalenceAblations/pvm-direct-nst/dirty-log-epoch":     0x315ef626def8f52b,
	"TestVMAMutationEquivalenceAblations/collab-sync/mprotect-storm":         0x9e7feee5f0cb40dd,
	"TestVMAMutationEquivalenceAblations/collab-sync/partial-munmap":         0xf647dc6e9d4a3170,
	"TestVMAMutationEquivalenceAblations/collab-sync/munmap-refault":         0x61c7532f039bc518,
	"TestVMAMutationEquivalenceAblations/collab-sync/large-page-boundary":    0x9b2c297c42918d0a,
	"TestVMAMutationEquivalenceAblations/collab-sync/dirty-log-epoch":        0x02eb5d2caf3e25de,
	"TestVMAMutationEquivalenceAblations/hugepages-ept/mprotect-storm":       0x3254894bace7e878,
	"TestVMAMutationEquivalenceAblations/hugepages-ept/partial-munmap":       0xb13487e8d3efd061,
	"TestVMAMutationEquivalenceAblations/hugepages-ept/munmap-refault":       0xab7bf5a37d4659b4,
	"TestVMAMutationEquivalenceAblations/hugepages-ept/large-page-boundary":  0x029366660635229b,
	"TestVMAMutationEquivalenceAblations/hugepages-ept/dirty-log-epoch":      0x5d0d53f9fca90e7b,
	"TestVMAMutationEquivalenceAblations/no-pcidmap/mprotect-storm":          0x5fb1a6a45b275c9c,
	"TestVMAMutationEquivalenceAblations/no-pcidmap/partial-munmap":          0xb15afc6ce38a40df,
	"TestVMAMutationEquivalenceAblations/no-pcidmap/munmap-refault":          0xc673f8e8a576b4b8,
	"TestVMAMutationEquivalenceAblations/no-pcidmap/large-page-boundary":     0x39e56357fa846379,
	"TestVMAMutationEquivalenceAblations/no-pcidmap/dirty-log-epoch":         0x0662e3d80972ed54,
	"TestVMAMutationEquivalenceAblations/coarse-lock/mprotect-storm":         0xba98442b3842821a,
	"TestVMAMutationEquivalenceAblations/coarse-lock/partial-munmap":         0x24980f9b21e9ca93,
	"TestVMAMutationEquivalenceAblations/coarse-lock/munmap-refault":         0xfc2e73f6397b6fff,
	"TestVMAMutationEquivalenceAblations/coarse-lock/large-page-boundary":    0xe9fb6a75c7c8e3ce,
	"TestVMAMutationEquivalenceAblations/coarse-lock/dirty-log-epoch":        0x89d23788fa6f04f4,
	"TestVMAMutationEquivalenceAblations/no-kpti/mprotect-storm":             0x9820bf3c0798442b,
	"TestVMAMutationEquivalenceAblations/no-kpti/partial-munmap":             0xdf07d33ce8547a0a,
	"TestVMAMutationEquivalenceAblations/no-kpti/munmap-refault":             0xf71d1277fa9fc56b,
	"TestVMAMutationEquivalenceAblations/no-kpti/large-page-boundary":        0xc5a1e0223558b4d0,
	"TestVMAMutationEquivalenceAblations/no-kpti/dirty-log-epoch":            0xc4e5adcf0980fbca,
	"TestVMAMutationEquivalenceMultiProc/kvm-ept_(BM)":                       0x6608230b88354c33,
	"TestVMAMutationEquivalenceMultiProc/kvm-spt_(BM)":                       0x7d44eb3dc0b50ba4,
	"TestVMAMutationEquivalenceMultiProc/pvm_(BM)":                           0x77971a354f29e0a0,
	"TestVMAMutationEquivalenceMultiProc/kvm-ept_(NST)":                      0x216eca0f4b0b6b53,
	"TestVMAMutationEquivalenceMultiProc/spt-on-ept_(NST)":                   0x18bca32a58cfb625,
	"TestVMAMutationEquivalenceMultiProc/pvm_(NST)":                          0x6ab3c34d7a6afb3b,
}
