package main

import (
	_ "embed"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// recordedText holds the simulated-count digest of every recorded seed, one
// "workload seed digest" line each. A change that alters the simulated model
// on purpose regenerates it with --record; a change meant only to make the
// simulator faster must leave it valid.
//
//go:embed recorded.txt
var recordedText string

// recorded maps recordKey(workload, seed) to the recorded digest.
var recorded = parseRecorded(recordedText)

func recordKey(workload string, seed uint64) string {
	return workload + " " + strconv.FormatUint(seed, 10)
}

func parseRecorded(text string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && !strings.HasPrefix(f[0], "#") {
			m[f[0]+" "+f[1]] = f[2]
		}
	}
	return m
}

// recordDigests runs one untraced pass of mm-churn and dirty-rw for each
// seed in the range "lo-hi" and writes their digests in recorded.txt's
// format.
func recordDigests(w io.Writer, span string) error {
	lo, hi, ok := strings.Cut(span, "-")
	first, err1 := strconv.ParseUint(lo, 10, 64)
	last, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || last < first {
		return fmt.Errorf("--record wants a seed range lo-hi, got %q", span)
	}
	fmt.Fprintf(w, "# Simulated-count digests, \"workload seed digest\" (see record.go).\n# Regenerate with: go run . --record %s > recorded.txt\n", span)
	for _, workload := range []string{"mm-churn", "dirty-rw"} {
		for seed := first; seed <= last; seed++ {
			p := newStreamInput(workload, seed).pass(nil)
			for _, r := range p.configs {
				if r.failed > 0 || len(r.problems) > 0 {
					return fmt.Errorf("%s seed %d: %d failed operations: %v", workload, seed, r.failed, r.problems)
				}
			}
			fmt.Fprintf(w, "%s %d %s\n", workload, seed, digest(p.configs))
		}
	}
	return nil
}
