package main

import (
	"time"

	"repro/internal/metrics"
)

// churnOps and dirtyOps are the guest calls a traced run times, by span
// name. churnOps also get a median per call.
var (
	churnOps = []string{"mmap", "touch_cold", "touch_resident", "mprotect", "fork", "touch_cow", "exec", "exit", "munmap"}
	dirtyOps = []string{"touch_read", "touch_write", "dirty_start", "dirty_collect"}
)

// counterMetrics are the simulated counts a traced run reports, summed over
// the six configurations of one pass.
var counterMetrics = []struct {
	name string
	get  func(s metrics.Snapshot) int64
}{
	{"world_switches", func(s metrics.Snapshot) int64 { return s.WorldSwitches }},
	{"guest_faults", func(s metrics.Snapshot) int64 { return s.GuestFaults }},
	{"shadow_faults", func(s metrics.Snapshot) int64 { return s.ShadowFaults }},
	{"ept_violations", func(s metrics.Snapshot) int64 { return s.EPTViolations }},
	{"pte_write_traps", func(s metrics.Snapshot) int64 { return s.PTEWriteTraps }},
	{"prefaults", func(s metrics.Snapshot) int64 { return s.Prefaults }},
	{"tlb_flushes", func(s metrics.Snapshot) int64 { return s.TLBFlushes }},
	{"cow_breaks", func(s metrics.Snapshot) int64 { return s.COWBreaks }},
	{"forks", func(s metrics.Snapshot) int64 { return s.Forks }},
	{"execs", func(s metrics.Snapshot) int64 { return s.Execs }},
	{"dirty_marks", func(s metrics.Snapshot) int64 { return s.DirtyMarks }},
	{"dirty_pml_drains", func(s metrics.Snapshot) int64 { return s.DirtyPMLDrains }},
	{"dirty_pages_collected", func(s metrics.Snapshot) int64 { return s.DirtyPagesCollected }},
}

// perLayer lists every per-layer metric with its unit, in report order.
// Every traced run reports all of them; a layer the workload does not reach
// from outside reads 0 (the grid's guest calls, counts and configurations
// happen inside experiments.RunAll; mm-churn and dirty-rw run no
// experiment).
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu." + l, "%"})
	}
	defs = append(defs, metricDef{"cpu.samples", "count"})
	for _, id := range gridExperiments {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	defs = append(defs, metricDef{"experiments.rest_s", "s"})
	for _, op := range churnOps {
		defs = append(defs, metricDef{"guest." + op + "_s", "s"}, metricDef{"guest." + op + "_p50_us", "us"})
	}
	for _, op := range dirtyOps {
		defs = append(defs, metricDef{"guest." + op + "_s", "s"})
	}
	for _, c := range configNames {
		defs = append(defs, metricDef{"backend." + c + "_s", "s"})
	}
	defs = append(defs, metricDef{"backend.host_ns_per_event", "ns"})
	for _, c := range counterMetrics {
		defs = append(defs, metricDef{"metrics." + c.name, "count"})
	}
	return append(defs,
		metricDef{"vclock.solo_grants", "count"},
		metricDef{"vclock.virtual_ms", "ms"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"trace.spans", "count"},
	)
}

type metricDef struct{ Name, Unit string }

// layerMetrics returns every per-layer metric at 0.
func layerMetrics() map[string]metric {
	m := map[string]metric{}
	for _, d := range perLayer() {
		m[d.Name] = metric{0, d.Unit}
	}
	return m
}

// cpuMetrics fills the cpu.* shares from a gzipped CPU profile.
func cpuMetrics(m map[string]metric, prof []byte) error {
	shares, samples, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for l, s := range shares {
		m["cpu."+l] = metric{s, "%"}
	}
	m["cpu.samples"] = metric{float64(samples), "count"}
	return nil
}

// streamLayers computes the per-layer metrics of a traced mm-churn or
// dirty-rw run: shares from the profile of the plain passes, per-config host
// time and host time per event from the plain passes, per-call host time
// from the spanned passes (per pass), counts from one pass (every pass
// repeats them), and the spanned passes' extra time over the bare ones that
// ran between them.
func streamLayers(plain, bare, spanned []streamPass, tr *tracer, prof []byte) (map[string]metric, error) {
	m := layerMetrics()
	if err := cpuMetrics(m, prof); err != nil {
		return nil, err
	}
	n := float64(len(spanned))
	for _, op := range churnOps {
		m["guest."+op+"_s"] = metric{tr.seconds(op) / n, "s"}
		m["guest."+op+"_p50_us"] = metric{tr.p50us(op), "us"}
	}
	for _, op := range dirtyOps {
		m["guest."+op+"_s"] = metric{tr.seconds(op) / n, "s"}
	}
	perCfg := make([][]float64, len(configNames))
	for _, p := range plain {
		for i, r := range p.configs {
			perCfg[i] = append(perCfg[i], r.timed.Seconds())
		}
	}
	for i, c := range configNames {
		m["backend."+c+"_s"] = metric{median(perCfg[i]), "s"}
	}
	var events, solo, virtual int64
	for _, r := range plain[0].configs {
		s := r.snap
		events += s.WorldSwitches + s.GuestFaults + s.ShadowFaults + s.EPTViolations + s.PTEWriteTraps
		solo += r.soloGrants
		virtual += r.makespan
		for _, c := range counterMetrics {
			v := m["metrics."+c.name]
			v.Value += float64(c.get(s))
			m["metrics."+c.name] = v
		}
	}
	if events > 0 {
		m["backend.host_ns_per_event"] = metric{medianTimed(plain) * 1e9 / float64(events), "ns"}
	}
	m["vclock.solo_grants"] = metric{float64(solo), "count"}
	m["vclock.virtual_ms"] = metric{float64(virtual) / float64(time.Millisecond), "ms"}
	m["trace.overhead_s"] = metric{medianTimed(spanned) - medianTimed(bare), "s"}
	m["trace.spans"] = metric{float64(len(tr.spans) + tr.dropped), "count"}
	return m, nil
}

// medianTimed is the median timed work of passes, in seconds.
func medianTimed(passes []streamPass) float64 {
	var ts []float64
	for _, p := range passes {
		ts = append(ts, p.timed().Seconds())
	}
	return median(ts)
}
