package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
)

func TestSameSeedSameCallStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 977} {
		if !reflect.DeepEqual(genChurn(seed), genChurn(seed)) {
			t.Errorf("seed %d: two mm-churn generations differ", seed)
		}
		if !reflect.DeepEqual(genDirty(seed), genDirty(seed)) {
			t.Errorf("seed %d: two dirty-rw generations differ", seed)
		}
	}
	if reflect.DeepEqual(genChurn(1), genChurn(2)) || reflect.DeepEqual(genDirty(1), genDirty(2)) {
		t.Error("seeds 1 and 2 generate the same stream")
	}
}

// A seed moves sizes and addresses, never the per-round operation mix or
// (beyond one stratum per round) the pages a pass maps.
func TestSeedKeepsOperationMix(t *testing.T) {
	stratum := (churnMaxPages - churnMinPages + 1 + churnRounds - 1) / churnRounds
	var totals []int
	for seed := uint64(0); seed < 20; seed++ {
		rounds := genChurn(seed)
		if len(rounds) != churnRounds {
			t.Fatalf("seed %d: %d rounds, want %d", seed, len(rounds), churnRounds)
		}
		total := 0
		for _, r := range rounds {
			if r.Pages < churnMinPages || r.Pages > churnMaxPages || r.Prefix < 1 || r.Prefix >= r.Pages {
				t.Fatalf("seed %d: round %+v out of range", seed, r)
			}
			total += r.Pages
		}
		totals = append(totals, total)
		for i, rd := range genDirty(seed) {
			writes := 0
			for _, a := range rd {
				if a.Page < 0 || a.Page >= dirtyPages {
					t.Fatalf("seed %d round %d: page %d outside the working set", seed, i, a.Page)
				}
				if a.Write {
					writes++
				}
			}
			if len(rd) != dirtyAccesses || writes != dirtyWrites {
				t.Fatalf("seed %d round %d: %d accesses, %d writes", seed, i, len(rd), writes)
			}
		}
	}
	if spread := slices.Max(totals) - slices.Min(totals); spread > stratum*churnRounds {
		t.Errorf("pages per pass vary by %d across seeds, want ≤ %d", spread, stratum*churnRounds)
	}
}

func TestGridGateFailsOnFlippedByte(t *testing.T) {
	want, err := gridReference("../results_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(want), "\n\n") || strings.Contains(string(want), "wall-clock") {
		t.Fatalf("footer not stripped: ends %q", want[len(want)-40:])
	}
	var ok verdict
	ok.checkGrid(gridPass{out: want, attempted: 16}, want, "ref")
	if len(ok.problems) != 0 {
		t.Fatalf("identical output fails the gate: %v", ok.problems)
	}
	flipped := slices.Clone(want)
	flipped[len(flipped)/2] ^= 1
	var bad verdict
	bad.checkGrid(gridPass{out: flipped, attempted: 16}, want, "ref")
	if len(bad.problems) != 1 {
		t.Fatalf("flipped byte: problems %v, want one", bad.problems)
	}
}

// The traced grid pass is RunAll itself; its writer opens one span per
// experiment header and passes every byte through.
func TestSpanWriterSpansEachExperiment(t *testing.T) {
	var out strings.Builder
	tr := newTracer()
	sw := &spanWriter{w: &out, tr: tr}
	writes := []string{"=== fig2: A ===\n", "row\n", "\n", "=== table3: B ===\n", "row\n", "\n"}
	for _, w := range writes {
		sw.Write([]byte(w))
	}
	sw.end()
	if out.String() != strings.Join(writes, "") {
		t.Fatalf("output %q", out.String())
	}
	if sw.attempted != 2 || !slices.Equal(tr.names, []string{"fig2", "table3"}) {
		t.Fatalf("attempted %d, spans %v", sw.attempted, tr.names)
	}
	for _, sp := range tr.spans {
		if sp.End < sp.Start || sp.Parent != -1 {
			t.Fatalf("span %+v not closed at top level", sp)
		}
	}
}

func TestCountGateFailsOnPerturbedCounter(t *testing.T) {
	rounds := genChurn(3)[:2]
	run := func() []configResult {
		var rs []configResult
		for _, cfg := range backend.Configs() {
			r := runConfig(cfg, nil, root, nil, churnBody(rounds))
			if r.failed != 0 || len(r.problems) != 0 {
				t.Fatalf("%v: %d failed: %v", cfg, r.failed, r.problems)
			}
			rs = append(rs, r)
		}
		return rs
	}
	a, b := run(), run()
	// The parent's write while a child shares the area must reach the COW
	// break path. It does on the shadow-paging configurations; the EPT
	// ones keep the parent's writable TLB entries across fork (their
	// flushRange charges the flush but drops no entry), so they break none.
	var cow int64
	for _, r := range a {
		cow += r.snap.COWBreaks
	}
	if want := int64(rounds[0].Pages + rounds[1].Pages); cow < want {
		t.Fatalf("%d COW breaks over all configurations, want at least %d", cow, want)
	}
	da, db := digest(a), digest(b)
	if da != db {
		t.Fatalf("two runs of one stream: digests %s and %s", da, db)
	}
	var same verdict
	checkDigests(&same, "test", 1, []string{da, db})
	if len(same.problems) != 0 {
		t.Fatalf("repeating counts fail the gate: %v", same.problems)
	}

	b[4].snap.PTEWriteTraps++
	var drift verdict
	checkDigests(&drift, "test", 1, []string{da, digest(b)})
	if len(drift.problems) != 1 {
		t.Fatalf("perturbed counter: problems %v, want one", drift.problems)
	}

	key := recordKey("test", 1)
	recorded[key] = digest(b)
	defer delete(recorded, key)
	var stale verdict
	checkDigests(&stale, "test", 1, []string{da, da})
	if len(stale.problems) != 1 {
		t.Fatalf("counts differing from the record: problems %v, want one", stale.problems)
	}
}

func TestTailPickLeavesTenBeyond(t *testing.T) {
	// A pass's round count must leave ten rounds beyond the p99.
	for name, rounds := range map[string]int{"mm-churn": churnRounds, "dirty-rw": dirtyRounds} {
		n := len(configNames) * rounds
		if _, beyond := percentile(make([]float64, n), tailQuantile); beyond < minTailBeyond {
			t.Errorf("%s: p99 of a %d-round pass leaves %d samples beyond it", name, n, beyond)
		}
	}
	// The pick is the nearest rank, on unsorted input.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if v, beyond := percentile(xs, tailQuantile); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, beyond := percentile(xs[1:], tailQuantile); beyond >= minTailBeyond {
		t.Errorf("p99 of 999 samples leaves %d beyond, want fewer than %d", beyond, minTailBeyond)
	}
	if v, beyond := percentile([]float64{5, 1, 3}, 0.5); v != 3 || beyond != 1 {
		t.Errorf("p50 of {1,3,5} = %v with %d beyond", v, beyond)
	}
}

func TestRoundMediansIgnoreOnePassStall(t *testing.T) {
	passes := [][]float64{
		{10, 20, 30},
		{11, 9000, 29},  // a host stall in round 1 of this pass
		{9, 21, 31, 40}, // a pass cut short elsewhere keeps the common prefix
	}
	if got := roundMedians(passes); !reflect.DeepEqual(got, []float64{10, 21, 30}) {
		t.Errorf("roundMedians = %v, want [10 21 30]", got)
	}
}

func TestAttributeDeepestLayerFrame(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/pagetable.(*PageTable).Map", "repro/internal/backend.(*Guest).Access", "repro/internal/vclock.(*Engine).Go.func1"}, "pagetable"},
		{[]string{"repro/internal/arch.VA.Page", "repro/internal/tlb.(*TLB).Lookup", "repro/internal/backend.(*Guest).Access"}, "tlb"},
		{[]string{"runtime.memmove", "repro/internal/vclock.(*CPU).Advance", "repro/internal/guest.(*Process).Touch"}, "vclock"},
		{[]string{"runtime.futex", "runtime.chansend", "repro/internal/vclock.(*CPU).yield", "repro/internal/backend.(*Guest).Access"}, "vclock_handoff"},
		{[]string{"runtime.chanrecv", "repro/internal/experiments.runCells"}, "experiments"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/mem.(*Allocator).Alloc"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "vclock_handoff"},
		{[]string{"runtime.usleep", "runtime.sysmon", "runtime.mstart"}, "other"},
		{[]string{"time.Now", "main.churnBody.func1"}, "other"},
		{[]string{"repro/internal/metrics.(*Count).Add"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// The profile decoder reads a real runtime/pprof profile, and every sample
// lands in one of the reported layers.
func TestCPUSharesOfRealProfile(t *testing.T) {
	prof, err := profiled(func() {
		for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
			runConfig(backend.KVMSPTBM, nil, root, nil, churnBody(genChurn(1)[:4]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("profiler took no samples")
	}
	var total float64
	for l, s := range shares {
		if !slices.Contains(layers, l) {
			t.Errorf("share for unknown layer %s", l)
		}
		total += s
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("shares sum to %v%%", total)
	}
	if shares["pagetable"]+shares["backend"]+shares["tlb"]+shares["mem"] == 0 {
		t.Errorf("no samples charged to the MMU layers: %v", shares)
	}
}

// Both kinds of run report exactly the metrics BENCHMARK.json declares.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer()")
	}
	out := t.TempDir()
	for _, traced := range []bool{false, true} {
		res, err := benchStream("dirty-rw", 5, time.Second, traced, out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.Name, m, d.Unit)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
	}
}
