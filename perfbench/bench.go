package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/backend"
)

// tailQuantile is the reported round-latency tail.
const tailQuantile = 0.99

// minPasses keeps every per-run median over at least this many passes of
// the fixed work.
const minPasses = 3

// setupReps is how many times the grid workload loads its reference to
// time set-up; the median is reported.
const setupReps = 51

// benchGrid measures experiments.RunAll at the default scale. Its output
// must equal the committed reference byte for byte. A pass, and a round, is
// one RunAll call.
func benchGrid(budget time.Duration, traced bool, outDir string) (result, error) {
	want, setup, err := gridSetup()
	if err != nil {
		return result{}, err
	}
	var v verdict
	check := func(g gridPass) { v.checkGrid(g, want, referencePath) }

	if traced {
		// Both passes run under the profiler, so its cost cancels out of
		// trace.overhead_s. A grid pass records one span per experiment,
		// too few to move the CPU shares.
		tr := newTracer()
		var plain, spanned gridPass
		prof, err := profiled(func() {
			plain = runGridAll(nil)
			spanned = runGridAll(tr)
		})
		if err != nil {
			return result{}, err
		}
		check(plain)
		check(spanned)
		m := layerMetrics()
		if err := cpuMetrics(m, prof); err != nil {
			return result{}, err
		}
		var named float64
		for _, id := range gridExperiments {
			s := tr.seconds(id)
			m["experiments."+id+"_s"] = metric{s, "s"}
			named += s
		}
		m["experiments.rest_s"] = metric{spanned.wall.Seconds() - named, "s"}
		m["trace.overhead_s"] = metric{(spanned.wall - plain.wall).Seconds(), "s"}
		m["trace.spans"] = metric{float64(len(tr.spans) + tr.dropped), "count"}
		if err := writeArtifacts(outDir, "grid", tr, prof); err != nil {
			return result{}, err
		}
		return v.result(m), nil
	}

	start := time.Now()
	var walls, allocs, rss []float64
	for len(walls) == 0 || time.Since(start) < budget {
		var g gridPass
		mem, err := measureMemory(func() { g = runGridAll(nil) })
		if err != nil {
			return result{}, err
		}
		check(g)
		walls = append(walls, g.wall.Seconds())
		allocs = append(allocs, mem.alloc)
		rss = append(rss, mem.peakRSS)
	}
	// A grid round is a whole RunAll pass: its experiments differ in size
	// by orders of magnitude, so a percentile over them would jump between
	// experiments from run to run.
	p50, _ := percentile(walls, 0.5)
	p99, _ := percentile(walls, tailQuantile)
	return v.result(map[string]metric{
		"wall_s":       {median(walls), "s"},
		"setup_s":      {setup, "s"},
		"ops_per_s":    {float64(v.attempted) / float64(len(walls)) / median(walls), "1/s"},
		"round_p50_us": {p50 * 1e6, "us"},
		"round_p99_us": {p99 * 1e6, "us"},
		"alloc_mb":     {median(allocs), "MB"},
		"max_rss_mb":   {median(rss), "MB"},
	}), nil
}

// checkGrid counts a grid pass's experiments and fails the run on an
// experiment error or on output that differs from want, the reference named
// ref.
func (v *verdict) checkGrid(g gridPass, want []byte, ref string) {
	v.attempted += g.attempted
	v.failed += g.failed
	if g.err != nil {
		v.fail("%v", g.err)
	}
	if !bytes.Equal(g.out, want) {
		v.fail("grid output differs from %s at byte %d", ref, firstDiff(g.out, want))
	}
}

// gridSetup loads the grid's reference output setupReps times and returns
// it with the median load time in seconds. That is all the set-up the grid
// workload has: RunAll builds every cell's Systems itself, inside the timed
// pass.
func gridSetup() ([]byte, float64, error) {
	var (
		want []byte
		reps []float64
	)
	for range setupReps {
		t0 := time.Now()
		b, err := gridReference(referencePath)
		if err != nil {
			return nil, 0, err
		}
		reps = append(reps, time.Since(t0).Seconds())
		want = b
	}
	return want, median(reps), nil
}

// streamPass is one pass of mm-churn or dirty-rw: the seed's whole call
// stream replayed on each of the six configurations in turn.
type streamPass struct {
	configs []configResult
}

func (p streamPass) setup() (t time.Duration) {
	for _, r := range p.configs {
		t += r.setup
	}
	return t
}

func (p streamPass) timed() (t time.Duration) {
	for _, r := range p.configs {
		t += r.timed
	}
	return t
}

// streamInput is the generated call stream of one mm-churn or dirty-rw
// seed, with dirty-rw's expected harvests.
type streamInput struct {
	workload string
	churn    []churnRound
	dirty    [][]access
	want     [][]int
}

func newStreamInput(workload string, seed uint64) streamInput {
	in := streamInput{workload: workload}
	if workload == "mm-churn" {
		in.churn = genChurn(seed)
	} else {
		in.dirty = genDirty(seed)
		in.want = dirtyWant(in.dirty)
	}
	return in
}

// pass replays the stream on every configuration.
func (in streamInput) pass(tr *tracer) streamPass {
	var p streamPass
	for _, cfg := range backend.Configs() {
		if in.workload == "mm-churn" {
			p.configs = append(p.configs, runConfig(cfg, tr, root, nil, churnBody(in.churn)))
		} else {
			var base arch.VA
			p.configs = append(p.configs, runConfig(cfg, tr, root, dirtyPrep(&base), dirtyBody(&base, in.dirty, in.want)))
		}
	}
	return p
}

// benchStream measures mm-churn or dirty-rw. Untraced, it repeats passes
// until the budget is spent, at least minPasses passes. Every pass is the
// same work, so each round's host time is taken as its median over the
// passes: a host stall (a vCPU descheduled by the hypervisor) inflates one
// copy of a round, not the median. The pass time is the sum of those
// per-round medians plus the median of the pass's time outside rounds.
// Traced, it spends half the budget on profiled passes without spans and
// half alternating passes that record a span per guest call with bare
// passes, neither spanned nor profiled, to measure the spans' cost against.
func benchStream(workload string, seed uint64, budget time.Duration, traced bool, outDir string) (result, error) {
	in := newStreamInput(workload, seed)
	var (
		v       verdict
		digests []string
	)
	run := func(tr *tracer) streamPass {
		p := in.pass(tr)
		for _, r := range p.configs {
			v.attempted += r.attempted
			v.failed += r.failed
			v.problems = append(v.problems, r.problems...)
		}
		digests = append(digests, digest(p.configs))
		return p
	}

	if traced {
		var plain []streamPass
		start := time.Now()
		prof, err := profiled(func() {
			for len(plain) < 2 || time.Since(start) < budget/2 {
				plain = append(plain, run(nil))
			}
		})
		if err != nil {
			return result{}, err
		}
		tr := newTracer()
		var bare, spanned []streamPass
		for len(spanned) == 0 || time.Since(start) < budget {
			bare = append(bare, run(nil))
			spanned = append(spanned, run(tr))
		}
		checkDigests(&v, workload, seed, digests)
		m, err := streamLayers(plain, bare, spanned, tr, prof)
		if err != nil {
			return result{}, err
		}
		if err := writeArtifacts(outDir, workload, tr, prof); err != nil {
			return result{}, err
		}
		return v.result(m), nil
	}

	start := time.Now()
	var (
		setups, rests, allocs, rss []float64
		rounds                     [][]float64 // per pass: every round's µs, in stream order
	)
	for len(rounds) < minPasses || time.Since(start) < budget {
		var p streamPass
		mem, err := measureMemory(func() { p = run(nil) })
		if err != nil {
			return result{}, err
		}
		var rs []float64
		for _, r := range p.configs {
			rs = append(rs, r.rounds...)
		}
		setups = append(setups, p.setup().Seconds())
		rests = append(rests, p.timed().Seconds()-sum(rs)/1e6)
		allocs = append(allocs, mem.alloc)
		rss = append(rss, mem.peakRSS)
		rounds = append(rounds, rs)
	}
	checkDigests(&v, workload, seed, digests)
	typical := roundMedians(rounds)
	wall := sum(typical)/1e6 + median(rests)
	p50, _ := percentile(typical, 0.5)
	p99, beyond := percentile(typical, tailQuantile)
	if beyond < minTailBeyond {
		v.fail("round p99 has %d rounds beyond it, want at least %d", beyond, minTailBeyond)
	}
	return v.result(map[string]metric{
		"wall_s":       {wall, "s"},
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {float64(v.attempted) / float64(len(rounds)) / wall, "1/s"},
		"round_p50_us": {p50, "us"},
		"round_p99_us": {p99, "us"},
		"alloc_mb":     {median(allocs), "MB"},
		"max_rss_mb":   {median(rss), "MB"},
	}), nil
}

// roundMedians returns each round's median latency over the passes, which
// all replay the same rounds in the same order. Percentiles over these
// medians describe the stream's slow rounds rather than the host's
// interruptions.
func roundMedians(passes [][]float64) []float64 {
	n := len(passes[0])
	for _, p := range passes {
		n = min(n, len(p))
	}
	out := make([]float64, n)
	col := make([]float64, len(passes))
	for i := range out {
		for j, p := range passes {
			col[j] = p[i]
		}
		out[i] = median(col)
	}
	return out
}

// checkDigests fails the run unless every pass produced the same simulated
// counts and, when the seed is in recorded.txt, the recorded ones.
func checkDigests(v *verdict, workload string, seed uint64, digests []string) {
	if len(digests) == 0 {
		return
	}
	for i, d := range digests {
		if d != digests[0] {
			v.fail("%s seed %d: pass %d simulated counts %s differ from pass 0's %s", workload, seed, i, d, digests[0])
		}
	}
	rec, ok := recorded[recordKey(workload, seed)]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d has no recorded counts; checked that %d passes repeat\n", workload, seed, len(digests))
	case rec != digests[0]:
		v.fail("%s seed %d: simulated counts %s differ from recorded %s", workload, seed, digests[0], rec)
	}
}
