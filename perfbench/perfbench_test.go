package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"splitfs/internal/crash"
	"splitfs/internal/splitfs"
	"splitfs/internal/vfs"
)

// testRun runs one workload for a fixed number of ops per client, set
// up once, and returns every metric.
func testRun(t *testing.T, workload string, ops int64, traced bool) (*measurement, map[string]float64) {
	t.Helper()
	m, err := run(config{workload: workload, seed: 3, budget: budget{ops: ops}, trace: traced,
		setupReps: 1, tmp: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	all, err := m.report()
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return m, all
}

// deterministic reports whether a metric is an exact function of the
// op stream on a single-client workload: simulated time and the layer
// counters, never wall time.
func deterministic(name string) bool {
	for _, p := range []string{"sim", "sw_overhead_ns_per_op", "pmem.", "splitfs.", "ext4dax.", "pm_write_amp",
		"lsmkv.flushes", "lsmkv.compactions", "lsmkv.wal_bytes_per_op"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// TestWrapperTransparent checks that the timing wrapper changes nothing
// the file system does: a traced run and two untraced runs of the same
// seed give identical simulated time and layer counters.
func TestWrapperTransparent(t *testing.T) {
	for _, w := range []string{"ycsb-a", "ycsb-c"} {
		_, ref := testRun(t, w, 3000, false)
		_, again := testRun(t, w, 3000, false)
		_, traced := testRun(t, w, 3000, true)
		n := 0
		for name, v := range ref {
			if !deterministic(name) {
				continue
			}
			n++
			if again[name] != v {
				t.Errorf("%s: %s differs between two untraced runs: %v vs %v", w, name, v, again[name])
			}
			if traced[name] != v {
				t.Errorf("%s: %s differs between untraced and traced runs: %v vs %v", w, name, v, traced[name])
			}
		}
		if n < 40 || ref["sim_ns_per_op"] == 0 {
			t.Errorf("%s: compared %d metrics, sim_ns_per_op %v", w, n, ref["sim_ns_per_op"])
		}
		if traced["vfs.read.calls_per_op"] == 0 || ref["vfs.read.calls_per_op"] != 0 {
			t.Errorf("%s: vfs.read.calls_per_op traced %v, untraced %v; want spans only when traced",
				w, traced["vfs.read.calls_per_op"], ref["vfs.read.calls_per_op"])
		}
	}
}

// TestWrapperForwardsCapabilities checks that the wrapper has the
// optional interfaces the server probes for, SyncAll on the file system
// and vfs.Mappable on files, exactly when the wrapped backend does.
func TestWrapperForwardsCapabilities(t *testing.T) {
	for _, kind := range []string{"splitfs-strict", "nova-strict"} {
		b, err := crash.NewBackend(kind, crash.BackendSpec{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := b.FS.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			t.Fatal(err)
		}
		fs := wrapFS(b.FS, newTracer(1), layerBackend, func(string) int { return 0 })
		wf, err := fs.OpenFile("/f", vfs.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, syncAll := b.FS.(syncAller)
		_, mappable := f.(vfs.Mappable)
		if _, ok := fs.(syncAller); ok != syncAll {
			t.Errorf("%s: wrapper has SyncAll %v, backend %v", kind, ok, syncAll)
		}
		if _, ok := wf.(vfs.Mappable); ok != mappable {
			t.Errorf("%s: wrapped file is Mappable %v, backend file %v", kind, ok, mappable)
		}
	}
}

// TestWorkloadsCorrect runs every workload briefly, traced, and checks
// that every op succeeded and that the layers the workload exists to
// exercise did work.
func TestWorkloadsCorrect(t *testing.T) {
	busy := map[string][]string{
		"ycsb-a":      {"lsmkv.flushes", "pmem.fences_per_op", "splitfs.relinks_per_op", "vfs.sync.calls_per_op"},
		"ycsb-c":      {"splitfs.user_reads_per_op", "vfs.read.calls_per_op", "lsmkv.self_us_per_op"},
		"served-mix":  {"server.wire_bytes_per_op", "server.read.backend_us", "vfs.rename.calls_per_op", "pmem.fences_per_op"},
		"crash-sweep": {"crash.states_tested", "crash.events_in_window", "sim_ns_per_op", "pmem.fences_per_op"},
	}
	for _, w := range workloads {
		ops := int64(400)
		if w == "crash-sweep" {
			ops = 6
		}
		m, all := testRun(t, w, ops, true)
		got, failed := m.ops()
		if failed != 0 || got != ops*int64(len(m.loops)) {
			t.Errorf("%s: %d ops, %d failed; want %d ops, 0 failed", w, got, failed, ops*int64(len(m.loops)))
		}
		for _, name := range busy[w] {
			if all[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, all[name])
			}
		}
		if w == "ycsb-c" && (all["pmem.fences_per_op"] != 0 || all["pmem.bytes_written_per_op"] != 0) {
			t.Errorf("ycsb-c: fences %v, PM bytes written %v per op; want a read-only path",
				all["pmem.fences_per_op"], all["pmem.bytes_written_per_op"])
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric tables and workload list
// in step with BENCHMARK.json at the repository root.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i])
		}
	}
}

// TestCrashCountsRecovery checks that crash-sweep's per-state counters
// cover what crash.Run does for a state crashed at the list's end:
// the execution, the crash and the recovery, on the same stack. The
// device's persistence events must match crash.Run's own count exactly.
func TestCrashCountsRecovery(t *testing.T) {
	const seed = 5
	env, err := setupCrash(seed)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := crash.Run(crash.Campaign{Mode: splitfs.Strict, Ops: env.ops, CrashAfter: len(env.ops), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d := func(name string) int64 {
		a, _ := env.after.obs.Get(name)
		b, _ := env.before.obs.Get(name)
		return a.Value - b.Value
	}
	if got, want := d("pmem/events"), rec.RecoveryEnd-rec.SysEvents[0]; got != want {
		t.Errorf("pmem events per state %d, crash.Run's execution and recovery %d", got, want)
	}
	if exec := env.hi - env.lo; d("pmem/events") <= exec {
		t.Errorf("pmem events per state %d, execution alone %d; want recovery counted", d("pmem/events"), exec)
	}
	if d("ext4dax/meta_ops") <= 0 || d("splitfs/appends") <= 0 {
		t.Errorf("ext4dax meta_ops %d, splitfs appends %d per state; want both > 0",
			d("ext4dax/meta_ops"), d("splitfs/appends"))
	}
}
