package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"time"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/metrics"
)

// configNames are the metric-name forms of backend.Configs(), in order.
var configNames = []string{"kvm-ept-bm", "kvm-spt-bm", "pvm-bm", "kvm-ept-nst", "spt-ept-nst", "pvm-nst"}

// configResult is what one configuration's stream measured and observed.
type configResult struct {
	setup, timed time.Duration
	rounds       []float64 // host µs per round
	attempted    int
	failed       int
	problems     []string
	snap         metrics.Snapshot
	makespan     int64
	soloGrants   int64
}

func (r *configResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// call times one guest call as a span under parent and counts it; a non-nil
// error is a failed operation.
func (r *configResult) call(tr *tracer, name string, parent handle, err func() error) bool {
	h := tr.open(name, parent)
	e := err()
	tr.close(h)
	r.attempted++
	if e != nil {
		r.failed++
		r.fail("%s: %v", name, e)
		return false
	}
	return true
}

// stage is one phase of a configuration's stream, run on its vCPU; spans it
// records go under parent.
type stage func(p *guest.Process, r *configResult, tr *tracer, parent handle)

// runConfig builds one System of cfg with one guest, starts one process on a
// single vCPU, runs prep (set-up) and then body (the timed work) on it, and
// snapshots the System's counters.
func runConfig(cfg backend.Config, tr *tracer, parent handle, prep, body stage) configResult {
	var r configResult
	h := tr.open(configNames[cfg], parent)
	defer tr.close(h)
	t0 := time.Now()
	s := backend.NewSystem(cfg, backend.DefaultOptions())
	g, err := s.NewGuest("bench")
	if err != nil {
		r.attempted, r.failed = 1, 1
		r.fail("%v: new guest: %v", cfg, err)
		return r
	}
	g.Run(0, imagePages, func(p *guest.Process) {
		if prep != nil {
			prep(p, &r, tr, h)
		}
		r.setup = time.Since(t0)
		t1 := time.Now()
		body(p, &r, tr, h)
		r.timed = time.Since(t1)
	})
	s.Eng.Wait()
	if err := s.Eng.Err(); err != nil {
		r.attempted++
		r.failed++
		r.fail("%v: engine: %v", cfg, err)
	}
	r.snap = s.MetricsSnapshot()
	r.makespan = s.Eng.Makespan()
	r.soloGrants = s.Eng.SoloGrants()
	return r
}

// churnBody replays the mm-churn rounds. After each round the process must
// be back to its starting footprint: every page the round mapped unmapped,
// every child gone.
func churnBody(rounds []churnRound) stage {
	return func(p *guest.Process, r *configResult, tr *tracer, parent handle) {
		resident, vmas := p.ResidentPages(), p.VMACount()
		for i, rd := range rounds {
			rh := tr.open("round", parent)
			t := time.Now()
			var base arch.VA
			r.call(tr, "mmap", rh, func() error { base = p.Mmap(rd.Pages); return nil })
			r.call(tr, "touch_cold", rh, func() error { p.TouchRange(base, rd.Pages, true); return nil })
			r.call(tr, "touch_resident", rh, func() error { p.TouchRange(base, rd.Pages, false); return nil })
			r.call(tr, "mprotect", rh, func() error { return p.Mprotect(base, rd.Pages, false) })
			r.call(tr, "mprotect", rh, func() error { return p.Mprotect(base, rd.Pages, true) })
			var child *guest.Process
			if r.call(tr, "fork", rh, func() (err error) { child, err = p.Fork(nil); return err }) {
				r.call(tr, "touch_cow", rh, func() error { p.TouchRange(base, rd.Pages, true); return nil })
				r.call(tr, "exit", rh, child.Exit)
			}
			if r.call(tr, "fork", rh, func() (err error) { child, err = p.Fork(nil); return err }) {
				if r.call(tr, "exec", rh, func() error { return child.Exec(imagePages) }) {
					r.call(tr, "exit", rh, child.Exit)
				}
			}
			rest := base + arch.VA(rd.Prefix)*arch.PageSize
			r.call(tr, "munmap", rh, func() error { return p.Munmap(base, rd.Prefix) })
			r.call(tr, "munmap", rh, func() error { return p.Munmap(rest, rd.Pages-rd.Prefix) })
			r.rounds = append(r.rounds, float64(time.Since(t).Nanoseconds())/1e3)
			tr.close(rh)
			if got, gotV := p.ResidentPages(), p.VMACount(); got != resident || gotV != vmas {
				r.fail("round %d: %d resident pages in %d areas after munmap, want %d in %d", i, got, gotV, resident, vmas)
			}
		}
	}
}

// dirtyPrep maps dirty-rw's working set and faults every page in, so the
// timed rounds run on stable structures.
func dirtyPrep(base *arch.VA) stage {
	return func(p *guest.Process, r *configResult, _ *tracer, _ handle) {
		*base = p.Mmap(dirtyPages)
		p.TouchRange(*base, dirtyPages, true)
	}
}

// dirtyBody arms dirty logging once and runs the rounds, harvesting each
// round's epoch with CollectDirty. The harvest must be exactly the round's
// written pages, in ascending order.
func dirtyBody(base *arch.VA, rounds [][]access, want [][]int) stage {
	return func(p *guest.Process, r *configResult, tr *tracer, parent handle) {
		h := tr.open("dirty_start", parent)
		p.StartDirtyLog()
		tr.close(h)
		r.attempted++
		for i, rd := range rounds {
			rh := tr.open("round", parent)
			t := time.Now()
			for _, a := range rd {
				name := "touch_read"
				if a.Write {
					name = "touch_write"
				}
				h := tr.open(name, rh)
				p.Touch(*base+arch.VA(a.Page)*arch.PageSize, a.Write)
				tr.close(h)
			}
			h := tr.open("dirty_collect", rh)
			got := p.CollectDirty()
			tr.close(h)
			r.rounds = append(r.rounds, float64(time.Since(t).Nanoseconds())/1e3)
			tr.close(rh)
			r.attempted += len(rd) + 1
			if !sameDirty(got, *base, want[i]) {
				r.failed++
				r.fail("round %d: collected %d dirty pages, want %d", i, len(got), len(want[i]))
			}
		}
	}
}

// dirtyWant is each round's expected harvest: the distinct written pages,
// ascending.
func dirtyWant(rounds [][]access) [][]int {
	want := make([][]int, len(rounds))
	for i, rd := range rounds {
		var pages []int
		for _, a := range rd {
			if a.Write {
				pages = append(pages, a.Page)
			}
		}
		slices.Sort(pages)
		want[i] = slices.Compact(pages)
	}
	return want
}

func sameDirty(got []arch.VA, base arch.VA, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, va := range got {
		if va != base+arch.VA(want[i])*arch.PageSize {
			return false
		}
	}
	return true
}

// digest condenses every simulated count a configuration produced — the
// metrics snapshot, the virtual makespan and the engine's solo grants —
// into one string that must repeat exactly for a seed.
func digest(results []configResult) string {
	h := sha256.New()
	for i, r := range results {
		fmt.Fprintf(h, "%s makespan=%d solo=%d %+v\n", configNames[i], r.makespan, r.soloGrants, r.snap)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
