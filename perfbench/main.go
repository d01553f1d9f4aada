// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three seeded workloads against the simulator's public API, checks that the
// simulator's outputs are correct, and prints one JSON result line:
//
//	perfbench --workload grid|mm-churn|dirty-rw --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics (host time, memory);
// with --trace 1 it holds the per-layer metrics: CPU share per package from a
// profile, host time per experiment, guest call and configuration from spans
// the benchmark records around its calls, and the simulated counts.
// README.md gives the rationale and the baseline.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// verdict accumulates the operation counts and correctness checks of a run.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// result reports the run; every problem found goes to standard error.
func (v *verdict) result(m map[string]metric) result {
	for i, p := range v.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(v.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", p)
	}
	return result{Correct: len(v.problems) == 0 && v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}
}

func main() {
	var (
		workload = flag.String("workload", "", "grid, mm-churn or dirty-rw")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measure for at least this many seconds, in whole passes")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the span log and CPU profile of traced runs")
		record   = flag.String("record", "", "print the simulated-count digests of seeds `lo-hi` in recorded.txt's format and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordDigests(os.Stdout, *record); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	budget := time.Duration(*seconds) * time.Second
	var (
		res result
		err error
	)
	switch *workload {
	case "grid":
		res, err = benchGrid(budget, *trace == 1, *outDir)
	case "mm-churn", "dirty-rw":
		res, err = benchStream(*workload, *seed, budget, *trace == 1, *outDir)
	default:
		err = fmt.Errorf("unknown --workload %q (grid, mm-churn, dirty-rw)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// profiled runs fn under the CPU profiler and returns the gzipped profile.
func profiled(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// writeArtifacts saves a traced run's span log and CPU profile for
// inspection (go tool pprof -top <file>).
func writeArtifacts(outDir, name string, tr *tracer, prof []byte) error {
	if err := tr.write(filepath.Join(outDir, name+".spans.json")); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, name+".cpu.pprof"), prof, 0o644); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// passMemory is what one pass cost in host memory, in MB: heap bytes
// allocated, and the peak resident set while it ran.
type passMemory struct{ alloc, peakRSS float64 }

// measureMemory runs fn as one pass. It first collects garbage and returns
// freed memory to the OS, then resets the kernel's peak-RSS mark, so every
// pass starts from the same footing and reports its own peak.
func measureMemory(fn func()) (passMemory, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return passMemory{}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return passMemory{}, fmt.Errorf("reading peak RSS: %w", err)
	}
	kib, err := vmHWM(status)
	if err != nil {
		return passMemory{}, err
	}
	return passMemory{
		alloc:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		peakRSS: float64(kib) * 1024 / 1e6,
	}, nil
}

// vmHWM extracts the peak resident set, in KiB, from /proc/self/status.
func vmHWM(status []byte) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
