package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"splitfs/internal/apps/lsmkv"
	"splitfs/internal/obs"
	"splitfs/internal/sim"
)

// metricSpec names one reported metric and its unit. The two tables
// below must list the same names and units as BENCHMARK.json's
// end_to_end and per_layer entries, in the same order; the package test
// checks that.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = perLayerSpecs()

func perLayerSpecs() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	add("us", "op_p99_us", "op_p95_us")
	add("us", "lsmkv.self_us_per_op")
	add("count", "lsmkv.flushes", "lsmkv.compactions")
	add("B", "lsmkv.wal_bytes_per_op")
	for _, k := range kindNames {
		add("count", "vfs."+k+".calls_per_op")
		add("us", "vfs."+k+".us_per_call")
	}
	for _, c := range splitfsCounters {
		unit := "count"
		if strings.HasSuffix(c, "_bytes") {
			unit = "B"
		}
		add(unit, "splitfs."+c+"_per_op")
	}
	add("ratio", "splitfs.mmap_hit_ratio", "splitfs.relink_share")
	for _, c := range ext4daxCounters {
		add("count", "ext4dax."+c+"_per_op")
	}
	add("ratio", "ext4dax.gc_merge_ratio")
	for _, c := range pmemCounters {
		unit := "count"
		if strings.HasPrefix(c, "bytes_") {
			unit = "B"
		}
		add(unit, "pmem."+c+"_per_op")
	}
	add("count", "pmem.lines_per_fence")
	for _, src := range pmemSources {
		add("count", "pmem.src."+src+".fences_per_op")
		add("B", "pmem.src."+src+".bytes_written_per_op")
	}
	add("ratio", "pm_write_amp")
	add("ns", "sim_ns_per_op", "sw_overhead_ns_per_op")
	for _, c := range sim.Categories() {
		add("ns", "sim."+simName(c)+"_ns_per_op")
	}
	for _, k := range kindNames {
		add("us", "server."+k+".backend_us")
	}
	for _, k := range kindNames {
		add("us", "server."+k+".overhead_us")
	}
	add("B", "server.wire_bytes_per_op")
	add("count", "server.errors")
	add("count", "crash.events_in_window", "crash.states_tested", "crash.replayed_per_state")
	add("ratio", "crash.interrupted_share")
	add("count", "crash.violations")
	add("B", "runtime.alloc_bytes_per_op")
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	add("ratio", "trace.overhead_frac")
	return out
}

// The obs counters (exported by crash.Backend.RegisterObs) that are
// reported per op under their own names.
var (
	splitfsCounters = []string{"appends", "staged_bytes", "relinks", "relink_blocks", "copied_bytes",
		"log_entries", "checkpoints", "user_reads", "user_writes", "staging_reclaims"}
	ext4daxCounters = []string{"traps", "meta_ops", "data_reads", "data_writes", "commits"}
	pmemCounters    = []string{"fences", "flushes", "bytes_written", "bytes_read", "lines_persisted", "events"}
	pmemSources     = []string{"fg", "relink", "reclaim"}
)

func simName(c sim.Category) string { return strings.ReplaceAll(c.String(), "-", "_") }

// blockBytes is the file-system block size relink moves whole blocks of.
const blockBytes = 4096

// counters is a point-in-time reading of every layer the benchmark
// diffs: the simulator's clock and the obs registry.
type counters struct {
	sim sim.Breakdown
	obs obs.Snapshot
}

func readCounters(clk *sim.Clock, reg *obs.Registry) counters {
	return counters{sim: clk.Snapshot(), obs: reg.Snapshot()}
}

// crashTally sums crash-sweep's per-state results.
type crashTally struct {
	eventsInWindow, states, replayed, interrupted, violations int64
}

// measurement is what one run collected; report turns it into metrics.
type measurement struct {
	wallNs int64   // the measured phase
	loops  []*loop // one per closed-loop client
	setupS []float64

	// Layer counters: before and after a stretch of work that covers
	// counterOps ops and userBytes bytes written by the workload.
	before, after counters
	counterOps    int64
	userBytes     int64

	lsm        lsmkv.Stats // delta over the measured phase
	mem0, mem1 runtime.MemStats
	// The process's CPU time and the host's steal time over the phase:
	// not metrics, but a record of how busy the host was.
	cpuS, stealS float64
	tr           *tracer
	crash        crashTally
	stateRSS     []float64 // crash-sweep: resident MiB at each state's end
	kv, served   bool      // which workload-specific layers are defined
}

// phaseStart and phaseEnd bracket the measured phase.
func (m *measurement) phaseStart() {
	runtime.GC() // every run starts its phase from the same heap state
	runtime.ReadMemStats(&m.mem0)
	m.cpuS, m.stealS = -cpuSeconds(), -stealSeconds()
}

func (m *measurement) phaseEnd() {
	runtime.ReadMemStats(&m.mem1)
	m.cpuS += cpuSeconds()
	m.stealS += stealSeconds()
}

// cpuSeconds returns the process's user and system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // informational only
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds returns the time the hypervisor ran something else while
// this host's CPUs wanted to run, summed over CPUs (the steal column of
// /proc/stat, in USER_HZ ticks of 10 ms).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0 // informational only
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// ops returns the measured phase's op and failure totals.
func (m *measurement) ops() (ops, failed int64) {
	for _, l := range m.loops {
		ops += l.ops
		failed += l.failed
	}
	return ops, failed
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report computes every end-to-end and per-layer metric.
func (m *measurement) report() (map[string]float64, error) {
	out := map[string]float64{}
	ops, _ := m.ops()
	var lat []int64
	for _, l := range m.loops {
		lat = append(lat, l.lat...)
	}
	lat = sortedCopy(lat)
	out["ops_per_s"] = div(float64(ops), float64(m.wallNs)/1e9)
	out["op_p50_us"] = percentile(lat, 0.50)
	out["op_p99_us"] = percentile(lat, 0.99)
	out["op_p95_us"] = percentile(lat, 0.95)
	cops := float64(m.counterOps)
	simD := m.after.sim.Sub(m.before.sim)
	out["sim_ns_per_op"] = div(float64(simD.Total), cops)
	out["sw_overhead_ns_per_op"] = div(float64(simD.Overhead()), cops)
	out["setup_s"] = median(m.setupS)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out["peak_rss_mb"] = rss
	if len(m.stateRSS) > 0 {
		// The process's peak is one state's footprint, or more when a
		// freed device's pages were still resident as the next one was
		// placed elsewhere, which happens in some runs and not others.
		out["peak_rss_mb"] = median(m.stateRSS)
	}

	d := func(name string) float64 {
		a, _ := m.after.obs.Get(name)
		b, _ := m.before.obs.Get(name)
		return float64(a.Value - b.Value)
	}
	if m.kv {
		out["lsmkv.flushes"] = float64(m.lsm.Flushes)
		out["lsmkv.compactions"] = float64(m.lsm.Compactions)
		out["lsmkv.wal_bytes_per_op"] = div(float64(m.lsm.WALBytes), float64(ops))
	}
	for _, c := range splitfsCounters {
		out["splitfs."+c+"_per_op"] = div(d("splitfs/"+c), cops)
	}
	hits, misses := d("splitfs/mmap_hits"), d("splitfs/mmap_misses")
	out["splitfs.mmap_hit_ratio"] = div(hits, hits+misses)
	relinked, copied := d("splitfs/relink_blocks")*blockBytes, d("splitfs/copied_bytes")
	out["splitfs.relink_share"] = div(relinked, relinked+copied)
	for _, c := range ext4daxCounters {
		out["ext4dax."+c+"_per_op"] = div(d("ext4dax/"+c), cops)
	}
	leaders, followers := d("ext4dax/gc_leaders"), d("ext4dax/gc_followers")
	out["ext4dax.gc_merge_ratio"] = div(followers, leaders+followers)
	for _, c := range pmemCounters {
		out["pmem."+c+"_per_op"] = div(d("pmem/"+c), cops)
	}
	out["pmem.lines_per_fence"] = div(d("pmem/lines_persisted"), d("pmem/fences"))
	for _, src := range pmemSources {
		out["pmem.src."+src+".fences_per_op"] = div(d("pmem/src/"+src+"/fences"), cops)
		out["pmem.src."+src+".bytes_written_per_op"] = div(d("pmem/src/"+src+"/bytes_written"), cops)
	}
	out["pm_write_amp"] = div(d("pmem/bytes_written"), float64(m.userBytes))
	for _, c := range sim.Categories() {
		out["sim."+simName(c)+"_ns_per_op"] = div(float64(simD.ByCat[c]), cops)
	}
	if m.served {
		out["server.wire_bytes_per_op"] = div(d("server/wire_bytes"), float64(ops))
		out["server.errors"] = d("server/errors")
	}
	out["crash.events_in_window"] = float64(m.crash.eventsInWindow)
	out["crash.states_tested"] = float64(m.crash.states)
	out["crash.replayed_per_state"] = div(float64(m.crash.replayed), float64(m.crash.states))
	out["crash.interrupted_share"] = div(float64(m.crash.interrupted), float64(m.crash.states))
	out["crash.violations"] = float64(m.crash.violations)
	out["runtime.alloc_bytes_per_op"] = div(float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc), float64(ops))
	out["runtime.gc_cycles"] = float64(m.mem1.NumGC - m.mem0.NumGC)
	out["runtime.gc_pause_ms"] = float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
	m.traceMetrics(out)
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if _, ok := out[s.name]; !ok {
			out[s.name] = 0 // a layer this workload does not exercise
		}
	}
	return out, nil
}

// traceMetrics derives the span-based metrics: per-kind call counts and
// times at the vfs boundary, lsmkv's self time (op time not spent in
// vfs calls), the server's backend time joined to each client call, and
// the tracing overhead.
func (m *measurement) traceMetrics(out map[string]float64) {
	var tracedOps, opNs, vfsNs float64
	var calls, callNs, backendNs [numKinds]float64
	for s := range m.tr.sess {
		// A backend span belongs to the client call of its session and
		// op (seq) whose interval contains it: each session is closed
		// loop with one call outstanding, in its own subtree.
		type call struct {
			kind       callKind
			start, end int64
		}
		bySeq := map[int64][]call{}
		for _, sp := range m.tr.spans(s) {
			switch sp.layer {
			case layerOp:
				tracedOps++
				opNs += float64(sp.end - sp.start)
			case layerVFS:
				calls[sp.kind]++
				callNs[sp.kind] += float64(sp.end - sp.start)
				vfsNs += float64(sp.end - sp.start)
				bySeq[sp.seq] = append(bySeq[sp.seq], call{sp.kind, sp.start, sp.end})
			}
		}
		for _, sp := range m.tr.spans(s) {
			if sp.layer != layerBackend {
				continue
			}
			for _, c := range bySeq[sp.seq] {
				if c.start <= sp.start && sp.end <= c.end {
					backendNs[c.kind] += float64(sp.end - sp.start)
					break
				}
			}
		}
	}
	for k, name := range kindNames {
		out["vfs."+name+".calls_per_op"] = div(calls[k], tracedOps)
		perCall := div(callNs[k], calls[k]) / 1e3
		out["vfs."+name+".us_per_call"] = perCall
		if m.served {
			backend := div(backendNs[k], calls[k]) / 1e3
			out["server."+name+".backend_us"] = backend
			out["server."+name+".overhead_us"] = perCall - backend
		}
	}
	if m.kv {
		out["lsmkv.self_us_per_op"] = div(opNs-vfsNs, tracedOps) / 1e3
	}
	var byMode [2]opTally
	for _, l := range m.loops {
		for i, t := range l.byMode {
			byMode[i].ops += t.ops
			byMode[i].ns += t.ns
		}
	}
	if byMode[0].ops > 0 && byMode[1].ops > 0 {
		untraced := float64(byMode[0].ops) / float64(byMode[0].ns)
		traced := float64(byMode[1].ops) / float64(byMode[1].ns)
		out["trace.overhead_frac"] = 1 - traced/untraced
	}
}

// rssMB reads the process's current resident set in MiB.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set: short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
