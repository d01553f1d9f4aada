package main

import "math/rand/v2"

// Workload sizes. They are constants, not flags: the benchmark's numbers are
// only comparable between commits when every run does the same work per pass.
const (
	// imagePages is the resident image each benchmark process starts with,
	// and the image an exec'd child maps.
	imagePages = 64

	// churnRounds is the number of mm-churn rounds each configuration
	// replays per pass; churnMinPages..churnMaxPages bounds a round's area.
	// Both workloads run enough rounds per pass (six configurations × 170)
	// for a per-pass p99 with ten samples beyond it.
	churnRounds   = 170
	churnMinPages = 256
	churnMaxPages = 1024

	// dirtyPages is dirty-rw's resident working set: four times the
	// 1536-entry TLB reach, so most accesses refill the TLB. Each round
	// makes dirtyAccesses page accesses, exactly dirtyWrites of them
	// writes (the other three quarters reads).
	dirtyPages    = 4 * 1536
	dirtyRounds   = 170
	dirtyAccesses = 1024
	dirtyWrites   = dirtyAccesses / 4
)

// churnRound is one mm-churn round: map an area of Pages pages, cold-write
// and re-read it, mprotect it read-only and back, fork and write the whole
// area while the child still shares it (a COW break per page) before the
// child exits, fork+exec+exit, then unmap the first Prefix pages and the
// rest.
type churnRound struct {
	Pages  int
	Prefix int
}

// access is one dirty-rw page access, Page pages into the working set.
type access struct {
	Page  int
	Write bool
}

// newRand returns the stream for one workload: seeds with the same value
// draw the same numbers on every Go release (PCG is specified exactly).
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// genChurn generates one pass of mm-churn rounds. Area sizes are stratified
// over [churnMinPages, churnMaxPages] and shuffled, so a seed changes every
// size, prefix and therefore every address, while the pages a pass maps stay
// within one stratum width of each other across seeds: the work per pass does
// not drift with the seed.
func genChurn(seed uint64) []churnRound {
	r := newRand(seed, 1)
	span := churnMaxPages - churnMinPages + 1
	rounds := make([]churnRound, churnRounds)
	for i := range rounds {
		lo := churnMinPages + i*span/churnRounds
		hi := churnMinPages + (i+1)*span/churnRounds
		pages := lo + r.IntN(hi-lo)
		rounds[i] = churnRound{Pages: pages, Prefix: 1 + r.IntN(pages-1)}
	}
	r.Shuffle(len(rounds), func(i, j int) { rounds[i], rounds[j] = rounds[j], rounds[i] })
	return rounds
}

// genDirty generates one pass of dirty-rw rounds: each round is
// dirtyAccesses accesses at uniformly random pages of the working set, with
// exactly dirtyWrites writes at shuffled positions.
func genDirty(seed uint64) [][]access {
	r := newRand(seed, 2)
	rounds := make([][]access, dirtyRounds)
	for i := range rounds {
		round := make([]access, dirtyAccesses)
		for j := range round {
			round[j] = access{Page: r.IntN(dirtyPages), Write: j < dirtyWrites}
		}
		r.Shuffle(len(round), func(a, b int) { round[a].Write, round[b].Write = round[b].Write, round[a].Write })
		rounds[i] = round
	}
	return rounds
}
