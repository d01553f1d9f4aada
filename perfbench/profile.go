package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the CPU-share buckets of a traced run, in report order. Each
// named repro/internal package is its own layer; cpu.vclock_handoff is the
// runtime's channel and scheduler work done for the engine's vCPU handoff,
// cpu.gc the collector, and cpu.other everything else (the benchmark's own
// code, and packages outside this list).
var layers = []string{
	"vclock", "vclock_handoff", "pagetable", "tlb", "mem", "backend", "core",
	"guest", "vmx", "hv", "experiments", "gc", "other",
}

// layerPkgs are the repro/internal packages that are layers of their own.
// A frame of any other repro/internal package (arch, cost, metrics, virtio,
// workloads, ...) is a helper: its samples go to the nearest layer frame
// that called it.
var layerPkgs = map[string]bool{
	"vclock": true, "pagetable": true, "tlb": true, "mem": true, "backend": true,
	"core": true, "guest": true, "vmx": true, "hv": true, "experiments": true,
}

// handoffPrefixes name the runtime's channel, park/wake and scheduler
// functions. Below a vclock frame they are the cost of goroutine handoff.
// A stack made only of them (the scheduler running on the g0 stack after a
// park, which the profiler cannot unwind into the parked goroutine) is also
// handoff: the vCPU goroutines are the only ones that park in this process.
var handoffPrefixes = []string{
	"runtime.chan", "runtime.closechan", "runtime.selectgo", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.park_m", "runtime.schedule",
	"runtime.findRunnable", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mcall", "runtime.notewakeup", "runtime.notesleep", "runtime.futex",
	"runtime.lock2", "runtime.unlock2", "runtime.runq", "runtime.injectglist",
	"runtime.semacquire", "runtime.semrelease", "runtime.gosched", "runtime.goschedImpl",
	"runtime.execute", "runtime.gogo", "runtime.handoffp", "runtime.resetspinning",
	"runtime.send", "runtime.recv", "runtime.netpoll", "runtime.osyield",
	"runtime.casgstatus", "runtime.mPark", "runtime.stealWork", "runtime.checkTimers",
}

// gcPrefixes name the collector's functions; any of them on a stack charges
// the sample to cpu.gc, whoever triggered it.
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.wbBuf",
}

func hasPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// internalPkg returns the package name of a repro/internal function frame
// ("repro/internal/vclock.(*CPU).Advance" → "vclock"), or "".
func internalPkg(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// attribute charges one stack, leaf frame first, to its layer: the deepest
// frame of a layer package wins, runtime frames above it go to that layer
// (channel and scheduler frames above a vclock frame to vclock_handoff),
// and the collector goes to gc wherever it appears.
func attribute(stack []string) string {
	for _, fn := range stack {
		if hasPrefix(fn, gcPrefixes) {
			return "gc"
		}
	}
	for i, fn := range stack {
		pkg := internalPkg(fn)
		if !layerPkgs[pkg] {
			continue
		}
		if pkg == "vclock" {
			for _, leafward := range stack[:i] {
				if hasPrefix(leafward, handoffPrefixes) {
					return "vclock_handoff"
				}
			}
		}
		return pkg
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			return "other"
		}
	}
	for _, fn := range stack {
		if hasPrefix(fn, handoffPrefixes) {
			return "vclock_handoff"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, in percent, and the sample count.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = 0
	}
	var total float64
	for i, st := range stacks {
		shares[attribute(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	if total > 0 {
		for l := range shares {
			shares[l] = 100 * shares[l] / total
		}
	}
	return shares, len(stacks), nil
}

// decodeProfile reads the subset of profile.proto a CPU profile needs: each
// sample's stack of function names (leaf first, inlined frames expanded)
// and its last value (CPU nanoseconds).
func decodeProfile(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.vals[len(s.vals)-1])
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value (wire types 0, 1, 5) or its bytes (type 2).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[w:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrives either as one
// varint (v, b == nil) or packed in b.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a protobuf varint, returning the byte count (0 if b is
// truncated).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
