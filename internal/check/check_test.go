package check

import (
	"reflect"
	"strings"
	"testing"
)

// corpusSize reports how many seeds the metamorphic corpus test sweeps.
// The full corpus (acceptance criterion: ≥200 seeds, which at the
// generator's backend weights covers all five MMU strategies many times
// over) runs in normal mode; -short keeps a fast smoke slice for the
// race-instrumented CI lanes.
func corpusSize(t *testing.T) int {
	if testing.Short() {
		return 25
	}
	return 200
}

// TestMetamorphicCorpus is the harness's main theorem: for every seed, the
// baseline replay is deterministic and every fast-path toggle and injected
// fault reproduces its observables bit-identically.
//
// Not parallel: the cursor-bypass variant flips a process-global pagetable
// flag, so variant runs must never overlap.
func TestMetamorphicCorpus(t *testing.T) {
	n := corpusSize(t)
	for seed := uint64(1); seed <= uint64(n); seed++ {
		if err := Verify(seed); err != nil {
			t.Fatalf("reproduce with: go run ./cmd/pvmfuzz -seed %d\n%v", seed, err)
		}
	}
}

// TestDirtyLogVariantDifferential pins the dirty-log fuzz lane: for each
// seed, the dirtylog-on run must be self-deterministic (identical rerun,
// identical dirty digest), and the sweep as a whole must actually collect
// pages — otherwise the variant audits nothing and the vacuity guard itself
// is untested.
func TestDirtyLogVariantDifferential(t *testing.T) {
	var collected int64
	for seed := uint64(1); seed <= 32; seed++ {
		p := Generate(seed)
		a, err := Run(p, Variant{Name: "dirtylog-on", DirtyLog: true})
		if err != nil {
			t.Fatalf("seed %d dirtylog-on: %v", seed, err)
		}
		b, err := Run(p, Variant{Name: "dirtylog-on", DirtyLog: true})
		if err != nil {
			t.Fatalf("seed %d dirtylog-on rerun: %v", seed, err)
		}
		if d := Diff(a, b); d != "" {
			t.Fatalf("seed %d: dirtylog-on nondeterministic: %s", seed, d)
		}
		if a.DirtyPages > 0 && a.DirtyDigest == 0 {
			t.Fatalf("seed %d: %d pages collected but dirty digest is zero", seed, a.DirtyPages)
		}
		collected += a.DirtyPages
	}
	if collected == 0 {
		t.Fatal("no seed in 1..32 collected a dirty page; the dirty-log variant is vacuous")
	}
}

// TestGeneratorReplayable pins seed→Program determinism: the whole scenario
// must be a pure function of the seed, or replaying a failure is hopeless.
func TestGeneratorReplayable(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 104, 127, 156, 1 << 40} {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if reflect.DeepEqual(Generate(1).Workers, Generate(2).Workers) {
		t.Fatalf("seeds 1 and 2 generated identical workloads")
	}
}

// TestGeneratorCoversBackends keeps the seed range honest: a modest prefix
// of the corpus must exercise every deployment configuration the generator
// can emit, so "the corpus passes" means "all five MMU strategies pass".
func TestGeneratorCoversBackends(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		label := Generate(seed).Label
		seen[label[:strings.IndexByte(label, '/')]] = true
	}
	for _, b := range backendChoices {
		if !seen[b.name] {
			t.Errorf("no seed in 1..64 generated backend %s", b.name)
		}
	}
}

// TestReplayTraceDeterministic pins the failure-artifact path: the same
// seed must yield byte-identical listings and digests across calls.
func TestReplayTraceDeterministic(t *testing.T) {
	l1, d1, err := ReplayTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	l2, d2, err := ReplayTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || l1 != l2 {
		t.Fatalf("trace replay not deterministic: digests %#x vs %#x", d1, d2)
	}
	if len(l1) == 0 || d1 == 0 {
		t.Fatalf("empty replay artifact: %d bytes, digest %#x", len(l1), d1)
	}
}

// TestDiffReportsDivergence exercises the oracle's comparison itself.
func TestDiffReportsDivergence(t *testing.T) {
	a, err := Run(Generate(5), Variant{Name: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, a); d != "" {
		t.Fatalf("self-diff nonempty: %s", d)
	}
	b := a
	b.Makespan++
	if d := Diff(a, b); d == "" {
		t.Fatal("makespan divergence not reported")
	}
	c := a
	c.Digest ^= 1
	if d := Diff(a, c); d == "" {
		t.Fatal("digest divergence not reported")
	}
}
