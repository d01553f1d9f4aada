package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxKeptSpans caps the spans a traced run keeps for writing out (24 bytes
// each). Per-name sums keep counting past the cap; only the span log and the
// per-name medians are limited to the first maxKeptSpans.
const maxKeptSpans = 1 << 19

// span is one timed call into a layer, in nanoseconds since the tracer's
// epoch. Parent is the index of the enclosing span, or -1.
type span struct {
	Start, End int64
	Parent     int32
	Name       uint16
}

// handle is an open span. idx is -1 when the span is past the cap (or the
// tracer is nil) and is then only summed.
type handle struct {
	idx   int32
	name  uint16
	start int64
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced passes run the same code with every method a no-op.
type tracer struct {
	epoch   time.Time
	names   []string
	ids     map[string]uint16
	spans   []span
	sum     []int64 // ns per name
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]uint16{}}
}

// open starts a span named name under the span parent.
func (t *tracer) open(name string, parent handle) handle {
	if t == nil {
		return handle{idx: -1}
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
		t.sum = append(t.sum, 0)
	}
	h := handle{idx: -1, name: id, start: int64(time.Since(t.epoch))}
	if len(t.spans) < maxKeptSpans {
		h.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Start: h.start, Parent: parent.idx, Name: id})
	} else {
		t.dropped++
	}
	return h
}

// close ends the span h.
func (t *tracer) close(h handle) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.sum[h.name] += end - h.start
	if h.idx >= 0 {
		t.spans[h.idx].End = end
	}
}

// root is the parent handle of a top-level span.
var root = handle{idx: -1}

// seconds is the summed duration of every span named name.
func (t *tracer) seconds(name string) float64 {
	id, ok := t.ids[name]
	if !ok {
		return 0
	}
	return float64(t.sum[id]) / 1e9
}

// p50us is the median duration, in microseconds, of the kept spans named
// name.
func (t *tracer) p50us(name string) float64 {
	id, ok := t.ids[name]
	if !ok {
		return 0
	}
	var ds []float64
	for _, s := range t.spans {
		if s.Name == id {
			ds = append(ds, float64(s.End-s.Start)/1e3)
		}
	}
	return median(ds)
}

// write saves the span log as JSON: the name table and one
// [name, parent, start_ns, end_ns] row per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	names, err := json.Marshal(t.names)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\"names\":%s,\"dropped\":%d,\"spans\":[", names, t.dropped)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d]", s.Name, s.Parent, s.Start, s.End)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
