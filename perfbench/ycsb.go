package main

import (
	"bytes"
	"fmt"

	"splitfs/internal/apps/lsmkv"
	"splitfs/internal/crash"
	"splitfs/internal/obs"
	"splitfs/internal/wl/ycsb"
)

// ycsb-a and ycsb-c: lsmkv with SyncWrites on (every put appends to the
// WAL and fsyncs it) over about 5 MB of records against a 256 KiB
// memtable, driven by one closed-loop client.
const (
	kvRecords    = 5000
	kvValueBytes = 1000
	kvMemtable   = 256 << 10
	// kvChunk is how many YCSB ops one ycsb.Run call issues; the phase
	// ends at the first chunk boundary past its deadline.
	kvChunk = 2000
)

// kvSpec sizes the device for the store plus the WAL, table and
// compaction churn of a run.
var kvSpec = crash.BackendSpec{DevBytes: 128 << 20, MaxInodes: 4096,
	StagingFiles: 12, StagingFileBytes: 4 << 20, OpLogBytes: 4 << 20}

// kvEnv is one loaded store on a fresh splitfs-strict device.
type kvEnv struct {
	b   *crash.Backend
	reg *obs.Registry
	tr  *tracer
	db  *lsmkv.DB
	kv  *kvStore
}

// setupKV creates the device, mkfs and mounts it, opens the store
// through the timing wrapper and runs the YCSB load phase.
func setupKV(seed uint64) (*kvEnv, error) {
	b, err := crash.NewBackend("splitfs-strict", kvSpec)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	b.RegisterObs(reg)
	tr := newTracer(1)
	fs := wrapFS(b.FS, tr, layerVFS, func(string) int { return 0 })
	db, err := lsmkv.Open(fs, lsmkv.Options{Dir: "/db", MemtableBytes: kvMemtable, SyncWrites: true})
	if err != nil {
		return nil, err
	}
	kv := &kvStore{db: db, shadow: make(map[string][]byte, kvRecords)}
	if _, err := ycsb.Load(kv, ycsb.Config{Records: kvRecords, ValueBytes: kvValueBytes, Seed: seed}); err != nil {
		return nil, fmt.Errorf("ycsb load: %w", err)
	}
	return &kvEnv{b: b, reg: reg, tr: tr, db: db, kv: kv}, nil
}

// kvStore is the ycsb.Store the workload runs against: it forwards to
// lsmkv, times each op through its loop, and checks each Get against a
// shadow of the last value Put for the key.
type kvStore struct {
	db        *lsmkv.DB
	shadow    map[string][]byte
	lp        *loop // nil during the load phase
	userBytes int64
}

func (d *kvStore) Put(key string, val []byte) error {
	var start int64
	if d.lp != nil {
		start = d.lp.begin()
	}
	err := d.db.Put(key, val)
	if d.lp != nil {
		d.lp.end(start, err == nil)
		d.userBytes += int64(len(key) + len(val))
	}
	if err == nil {
		d.shadow[key] = append(d.shadow[key][:0], val...)
	}
	return err
}

func (d *kvStore) Get(key string) ([]byte, error) {
	var start int64
	if d.lp != nil {
		start = d.lp.begin()
	}
	v, err := d.db.Get(key)
	want, ok := d.shadow[key]
	if d.lp != nil {
		d.lp.end(start, err == nil && ok && bytes.Equal(v, want))
	}
	return v, err
}

func (d *kvStore) Scan(start string, count int) ([]lsmkv.KV, error) {
	return nil, fmt.Errorf("perfbench: scans are not part of any workload")
}

// runKV runs YCSB workload w over a freshly loaded store. Set-up is
// repeated reps times, each on a fresh device; the last store is the one
// measured.
func runKV(w ycsb.Workload, cfg config) (*measurement, error) {
	m := &measurement{kv: true}
	env, setupS, err := repeatSetup(cfg, func() (*kvEnv, error) { return setupKV(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	m.setupS = setupS
	lsm0 := env.db.Stats()
	m.phaseStart()
	m.before = readCounters(env.b.Clock, env.reg)
	lp := newLoop(env.tr, 0, cfg.budget, cfg.trace, cfg.seed)
	env.kv.lp = lp
	m.loops, m.tr = []*loop{lp}, env.tr
	t0 := env.tr.now()
	for chunk := uint64(0); lp.more(); chunk++ {
		n := int64(kvChunk)
		if cfg.budget.ops > 0 && cfg.budget.ops-lp.ops < n {
			n = cfg.budget.ops - lp.ops
		}
		// ycsb.Run reseeds its generator from Seed on every call, so
		// each chunk gets its own seed derived from the run's.
		rc := ycsb.Config{Records: kvRecords, Operations: int(n), ValueBytes: kvValueBytes,
			Seed: cfg.seed*1_000_003 + chunk + 1}
		if _, err := ycsb.Run(env.kv, w, rc); err != nil {
			break // the failed put is counted by kvStore
		}
	}
	m.wallNs = env.tr.now() - t0
	lp.finish()
	m.after = readCounters(env.b.Clock, env.reg)
	m.phaseEnd()
	lsm1 := env.db.Stats()
	m.lsm = lsmkv.Stats{Flushes: lsm1.Flushes - lsm0.Flushes, Compactions: lsm1.Compactions - lsm0.Compactions,
		WALBytes: lsm1.WALBytes - lsm0.WALBytes}
	m.counterOps, m.userBytes = lp.ops, env.kv.userBytes
	if err := env.db.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	return m, nil
}
