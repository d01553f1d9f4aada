package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// gridExperiments are the experiments reported one by one in a traced grid
// run (the ones that carry the grid's host time); the rest are summed into
// experiments.rest_s.
var gridExperiments = []string{"coldstart", "fig10", "fig11", "fig12", "fig13", "fig2", "fig4", "future", "table3", "table4"}

// referencePath is the committed default-grid output (pvmbench -exp all),
// relative to the repository root the benchmark runs from.
const referencePath = "results_default.txt"

// footer matches what pvmbench prints after RunAll's output: a newline,
// then the "(… wall-clock, N workers)" line.
var footer = regexp.MustCompile(`\n\([^\n]*wall-clock[^\n]*\)\n$`)

// gridReference reads the committed default-grid output and strips
// pvmbench's wall-clock footer, leaving the bytes RunAll must write.
func gridReference(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("grid reference: %w", err)
	}
	if !footer.Match(b) {
		return nil, fmt.Errorf("grid reference %s: no wall-clock footer", path)
	}
	return footer.ReplaceAll(b, nil), nil
}

// gridScale is what pvmbench -exp all runs by default: the default scale
// with cells fanned across every host CPU.
func gridScale() experiments.Scale {
	sc := experiments.DefaultScale()
	sc.Parallel = runtime.NumCPU()
	return sc
}

// gridPass is one run of the default grid.
type gridPass struct {
	out       []byte
	wall      time.Duration
	attempted int
	failed    int
	err       error
}

// runGridAll runs experiments.RunAll once. With a tracer it records one
// span per experiment. RunAll stops at the first experiment that fails; the
// experiments it attempted are the headers it wrote.
func runGridAll(tr *tracer) gridPass {
	var buf bytes.Buffer
	sw := &spanWriter{w: &buf, tr: tr}
	t0 := time.Now()
	err := experiments.RunAll(gridScale(), sw)
	sw.end()
	g := gridPass{out: buf.Bytes(), wall: time.Since(t0), attempted: sw.attempted, err: err}
	if err != nil {
		g.failed = 1
	}
	return g
}

// spanWriter passes RunAll's output on to w and counts its experiments.
// experiments.Run writes each experiment's "=== id: title ===" header in one
// Write, so a Write that starts with "=== " ends the previous experiment's
// span and opens the next one's, named by the id.
type spanWriter struct {
	w         io.Writer
	tr        *tracer
	cur       handle
	open      bool
	attempted int
}

func (s *spanWriter) Write(b []byte) (int, error) {
	if rest, ok := bytes.CutPrefix(b, []byte("=== ")); ok {
		s.end()
		id, _, _ := bytes.Cut(rest, []byte(":"))
		s.cur, s.open = s.tr.open(string(id), root), true
		s.attempted++
	}
	return s.w.Write(b)
}

// end closes the open experiment's span, if any.
func (s *spanWriter) end() {
	if s.open {
		s.tr.close(s.cur)
		s.open = false
	}
}
