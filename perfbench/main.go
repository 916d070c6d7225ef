// Wall time is what the benchmark measures.
//
// +determinism:wallclock

// Command perfbench is the repository's benchmark. It drives one named
// workload through the public APIs of internal/crash, internal/apps/lsmkv,
// internal/wl/ycsb and internal/server over splitfs-strict, checks every
// output, and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload ycsb-a --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer ones. METRICS.md describes each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"splitfs/internal/wl/ycsb"
)

// verifySeed is kept for verification runs only: a claimed change is
// checked on it after being developed and tuned on other seeds.
const verifySeed = 9001

// A run sets its workload up from scratch at least minSetupReps times,
// and more while the set-ups have taken less than minSetupSeconds in all,
// so a cheap set-up (crash-sweep's and served-mix's take about 20 ms) is
// sampled often enough for a steady median. setup_s is the median.
const (
	minSetupReps    = 5
	maxSetupReps    = 200
	minSetupSeconds = 1.0
)

var workloads = []string{"ycsb-a", "ycsb-c", "served-mix", "crash-sweep"}

// config is one run's parameters.
type config struct {
	workload  string
	seed      uint64
	budget    budget
	trace     bool
	setupReps int     // at least this many set-ups
	setupSecs float64 // and more until they have taken this long
	tmp       string  // directory for served-mix's unix socket
}

func run(cfg config) (*measurement, error) {
	switch cfg.workload {
	case "ycsb-a":
		return runKV(ycsb.A, cfg)
	case "ycsb-c":
		return runKV(ycsb.C, cfg)
	case "served-mix":
		return runServed(cfg)
	case "crash-sweep":
		return runCrash(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// repeatSetup sets a workload up from scratch, cfg.setupReps times or
// more (see minSetupSeconds), and returns the last environment with
// every set-up's wall time in seconds. release, when not nil, tears down
// each environment that a later set-up replaces.
func repeatSetup[E any](cfg config, setup func() (E, error), release func(E) error) (env E, secs []float64, err error) {
	total := 0.0
	for i := 0; i < cfg.setupReps || (total < cfg.setupSecs && i < maxSetupReps); i++ {
		if i > 0 && release != nil {
			if err := release(env); err != nil {
				return env, nil, err
			}
		}
		var zero E
		env = zero // the previous environment is garbage before the next set-up
		runtime.GC()
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[i]
	}
	return env, secs, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host records what a result was measured on.
type host struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	VerifySeed    bool    `json:"verify_seed"`
	Trace         bool    `json:"trace"`
	Seconds       int     `json:"seconds"`
	Samples       int64   `json:"samples"`
	FailedOpsFrac float64 `json:"failed_ops_frac"`
	CPUSeconds    float64 `json:"cpu_s"`
	StealSeconds  float64 `json:"host_steal_s"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	GoVersion     string  `json:"go_version"`
	Rev           string  `json:"rev"`
}

func main() {
	workload := flag.String("workload", "", "workload: ycsb-a, ycsb-c, served-mix or crash-sweep")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	rev := flag.String("rev", "unknown", "source revision recorded in the result")
	tmp := flag.String("tmp", os.TempDir(), "directory for served-mix's unix socket")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, trace: *trace == 1, setupReps: minSetupReps,
		setupSecs: minSetupSeconds, tmp: *tmp,
		budget: budget{ns: int64(*seconds) * 1e9}}
	m, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	all, err := m.report()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ops, failed := m.ops()
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{Correct: failed == 0 && ops > 0, Attempted: ops, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{all[s.name], s.unit}
	}
	h := host{Workload: cfg.workload, Seed: cfg.seed, VerifySeed: cfg.seed == verifySeed, Trace: cfg.trace,
		Seconds: *seconds, Samples: ops, FailedOpsFrac: div(float64(failed), float64(ops)),
		CPUSeconds: m.cpuS, StealSeconds: m.stealS,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Rev: *rev}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]host{"host": h}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
