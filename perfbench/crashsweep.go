package main

import (
	"fmt"
	"runtime"
	"strings"

	"splitfs/internal/crash"
	"splitfs/internal/ext4dax"
	"splitfs/internal/obs"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/vfs"
)

// The swept workload is one fixed crash.RandomOps list; the run's seed
// picks the crash points and the torn-line seed. A list drawn from the
// run's seed would make the per-state cost, which is mostly the list's
// execution, vary from seed to seed by more than the metrics' bounds.
// Every state runs on the crash package's default device, as every crash
// campaign in the repository does.
const (
	crashOps      = 24
	crashListSeed = 1
)

// The stack crash.Run builds for each state: a persistence-tracking
// device of the crash package's default size, and its splitfs sizing.
const crashDevBytes = 32 << 20

var crashFSConfig = splitfs.Config{Mode: splitfs.Strict, StagingFiles: 4,
	StagingFileBytes: 1 << 20, OpLogBytes: 256 << 10}

// crashEnv is one recorded sweep target: the op list, its crashable
// event window, and the layer counters of one state.
type crashEnv struct {
	ops           []crash.Op
	lo, hi        int64 // crashable events are (lo, hi]
	before, after counters
	userBytes     int64
}

// setupCrash makes the op list, records it with crash.Run to find the
// window of persistence events, and counts one state on a stack of its
// own, since crash.Run does not expose its device or clock: it executes
// the list, crashes at its end, remounts with journal replay and runs
// op-log recovery, as crash.Run does.
func setupCrash(seed uint64) (*crashEnv, error) {
	ops := crash.RandomOps(crashListSeed, crashOps)
	rec, err := crash.Run(crash.Campaign{Mode: splitfs.Strict, Ops: ops, CrashAfter: len(ops), Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("recording run: %w", err)
	}
	if rec.Violation != "" {
		return nil, fmt.Errorf("recording run: %s", rec.Violation)
	}
	env := &crashEnv{ops: ops, lo: rec.SysEvents[0], hi: rec.SysEvents[len(rec.SysEvents)-1]}
	// The counting stack reuses the recording run's freed pages, so
	// set-up time does not depend on where the collector's cycle falls.
	runtime.GC()
	if err := env.count(seed); err != nil {
		return nil, fmt.Errorf("counting run: %w", err)
	}
	return env, nil
}

// count reads the layer counters of one state into env.before and
// env.after.
func (env *crashEnv) count(seed uint64) error {
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: crashDevBytes, Clock: clk, TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 512})
	if err != nil {
		return err
	}
	fs, err := splitfs.New(kfs, crashFSConfig)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	dev.RegisterObs(reg)
	fs.RegisterObs(reg)
	before := readCounters(clk, reg)
	if env.userBytes, err = applyWrites(fs, env.ops); err != nil {
		return err
	}
	executed := reg.Snapshot()
	if err := dev.Crash(sim.NewRNG(seed)); err != nil {
		return err
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	fs2, _, err := splitfs.RecoverFS(kfs2, crashFSConfig)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	// The recovered stack's splitfs and ext4dax counters start from 0;
	// registering it replaces the crashed stack's. Rebasing those rows of
	// before by what the execution counted makes after - before the sum
	// of both stacks. The device and clock persist across the crash.
	fs2.RegisterObs(reg)
	for i, row := range before.obs {
		if !strings.HasPrefix(row.Name, "pmem/") {
			x, _ := executed.Get(row.Name)
			before.obs[i].Value -= x.Value
		}
	}
	env.before, env.after = before, readCounters(clk, reg)
	return nil
}

// applyWrites executes a list of crash.OpWrite ops the way crash.Run
// does: one open handle per path, writes at Off (or appended), and an
// fsync where the op asks for one. It returns the bytes written.
func applyWrites(fs vfs.FileSystem, ops []crash.Op) (int64, error) {
	handles := map[string]vfs.File{}
	var n int64
	for _, op := range ops {
		if op.Kind != crash.OpWrite || op.Close {
			return n, fmt.Errorf("unsupported op %v", op.Kind)
		}
		h := handles[op.Path]
		if h == nil {
			var err error
			if h, err = fs.OpenFile(op.Path, vfs.O_RDWR|vfs.O_CREATE, 0644); err != nil {
				return n, err
			}
			handles[op.Path] = h
		}
		off := op.Off
		if off < 0 {
			fi, err := h.Stat()
			if err != nil {
				return n, err
			}
			off = fi.Size
		}
		if _, err := h.WriteAt(op.Data, off); err != nil {
			return n, err
		}
		n += int64(len(op.Data))
		if op.Fsync {
			if err := h.Sync(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// runCrash measures crash-sweep: each op is one crash state, a
// crash.Run that crashes at a seeded-sampled event of the window,
// recovers and checks the strict-mode guarantee.
func runCrash(cfg config) (*measurement, error) {
	env, setupS, err := repeatSetup(cfg, func() (*crashEnv, error) { return setupCrash(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	m := &measurement{setupS: setupS}
	// Every state executes the list up to its crash point, crashes and
	// recovers; the counting run, which crashes at the list's end, gives
	// the per-state layer counters.
	m.before, m.after, m.counterOps, m.userBytes = env.before, env.after, 1, env.userBytes
	m.crash.eventsInWindow = env.hi - env.lo
	m.tr = newTracer(1)
	rng := sim.NewRNG(cfg.seed ^ 0xc7a5)
	m.phaseStart()
	lp := newLoop(m.tr, 0, cfg.budget, cfg.trace, cfg.seed)
	m.loops = []*loop{lp}
	t0 := m.tr.now()
	for lp.more() {
		// Each state starts from the same heap, so its time does not
		// depend on where the collector's cycle falls.
		runtime.GC()
		k := env.lo + 1 + rng.Int63n(env.hi-env.lo)
		start := lp.begin()
		res, err := crash.Run(crash.Campaign{Mode: splitfs.Strict, Ops: env.ops, Seed: cfg.seed, CrashAtEvent: k})
		ok := err == nil && res.Violation == ""
		lp.end(start, ok)
		// The state's device is garbage now but still resident: this
		// is the state's footprint.
		mb, err := rssMB()
		if err != nil {
			return nil, err
		}
		m.stateRSS = append(m.stateRSS, mb)
		m.crash.states++
		if !ok {
			m.crash.violations++
			continue
		}
		m.crash.replayed += int64(res.Replayed)
		if res.Interrupted {
			m.crash.interrupted++
		}
	}
	m.wallNs = m.tr.now() - t0
	lp.finish()
	m.phaseEnd()
	return m, nil
}
