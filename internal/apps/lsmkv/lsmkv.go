// Package lsmkv is a LevelDB-style log-structured merge-tree key-value
// store built on the vfs.FileSystem interface. It generates the file
// system access pattern the paper's YCSB-on-LevelDB evaluation exercises
// (§5.2, §5.8): write-ahead-log appends with fsync, memtable flushes into
// sorted string tables (SSTables), sequential compaction reads/writes,
// and random reads through table indexes.
//
// The engine is deliberately scaled down (single level-0 list plus one
// level-1 table) but mechanically faithful: every put is durably logged
// before acknowledgement when SyncWrites is on, flushes and compactions
// rewrite tables atomically via rename, and recovery replays the WAL.
package lsmkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"splitfs/internal/vfs"
)

// Options configure the store.
type Options struct {
	// Dir is the database directory (created if missing).
	Dir string
	// MemtableBytes triggers a flush (paper: 64 MB sstables per
	// Facebook's tuning guide; scaled default 512 KB).
	MemtableBytes int
	// SyncWrites fsyncs the WAL on every put (LevelDB WriteOptions.sync).
	SyncWrites bool
	// L0CompactAt is the number of level-0 tables that triggers a
	// compaction into level 1 (default 4).
	L0CompactAt int
	// IndexEvery controls the sparse index density of tables (default 16
	// records).
	IndexEvery int
}

func (o *Options) fill() {
	if o.Dir == "" {
		o.Dir = "/db"
	}
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 512 << 10
	}
	if o.L0CompactAt == 0 {
		o.L0CompactAt = 4
	}
	if o.IndexEvery == 0 {
		o.IndexEvery = 16
	}
}

// Stats counts engine activity.
type Stats struct {
	Puts        int64
	Gets        int64
	Scans       int64
	Flushes     int64
	Compactions int64
	WALBytes    int64
}

// tombstone marks deletions in the LSM.
var tombstone = []byte("\x00__lsmkv_tombstone__")

// DB is an open store.
type DB struct {
	fs   vfs.FileSystem
	opts Options

	wal      vfs.File
	walSeq   int
	walBytes int
	mem      map[string][]byte
	memBytes int
	l0       []*table // newest first
	l1       *table
	nextTbl  int
	stats    Stats
	getBuf   []byte // read window reused by every table lookup
}

// Open creates or recovers a store in opts.Dir.
func Open(fs vfs.FileSystem, opts Options) (*DB, error) {
	opts.fill()
	db := &DB{fs: fs, opts: opts, mem: make(map[string][]byte)}
	if _, err := fs.Stat(opts.Dir); err != nil {
		if !errors.Is(err, vfs.ErrNotExist) {
			return nil, err
		}
		if err := fs.Mkdir(opts.Dir, 0755); err != nil {
			return nil, err
		}
	}
	if err := db.recover(); err != nil {
		return nil, err
	}
	if db.wal == nil {
		if err := db.rotateWAL(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) path(name string) string { return db.opts.Dir + "/" + name }

// recover loads table metadata and replays any WALs left by a crash.
func (db *DB) recover() error {
	ents, err := db.fs.ReadDir(db.opts.Dir)
	if err != nil {
		return err
	}
	var l0Names []string
	var walNames []string
	for _, e := range ents {
		switch {
		case strings.HasPrefix(e.Name, "tbl-l1-"):
			t, err := openTable(db.fs, db.path(e.Name), db.opts.IndexEvery)
			if err != nil {
				return err
			}
			db.l1 = t
			db.bumpTbl(e.Name)
		case strings.HasPrefix(e.Name, "tbl-"):
			l0Names = append(l0Names, e.Name)
			db.bumpTbl(e.Name)
		case strings.HasPrefix(e.Name, "wal-"):
			walNames = append(walNames, e.Name)
		}
	}
	// Level-0 tables newest first (higher sequence = newer).
	sort.Sort(sort.Reverse(sort.StringSlice(l0Names)))
	for _, name := range l0Names {
		t, err := openTable(db.fs, db.path(name), db.opts.IndexEvery)
		if err != nil {
			return err
		}
		db.l0 = append(db.l0, t)
	}
	// Replay WALs oldest first into the memtable.
	sort.Strings(walNames)
	for _, name := range walNames {
		if err := db.replayWAL(db.path(name)); err != nil {
			return err
		}
		if n := parseSeq(name); n >= db.walSeq {
			db.walSeq = n + 1
		}
	}
	return nil
}

func (db *DB) bumpTbl(name string) {
	if n := parseSeq(name); n >= db.nextTbl {
		db.nextTbl = n + 1
	}
}

func parseSeq(name string) int {
	idx := strings.LastIndex(name, "-")
	if idx < 0 {
		return 0
	}
	var n int
	fmt.Sscanf(name[idx+1:], "%06d", &n)
	return n
}

// rotateWAL starts a fresh write-ahead log.
func (db *DB) rotateWAL() error {
	if db.wal != nil {
		db.wal.Close()
	}
	name := fmt.Sprintf("wal-%06d", db.walSeq)
	db.walSeq++
	f, err := db.fs.OpenFile(db.path(name), vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0644)
	if err != nil {
		return err
	}
	db.wal = f
	db.walBytes = 0
	return nil
}

// walRecord is length-prefixed: keyLen(4) valLen(4) key val.
func walRecord(key string, val []byte) []byte {
	rec := make([]byte, 8+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[8:], key)
	copy(rec[8+len(key):], val)
	return rec
}

func (db *DB) replayWAL(path string) error {
	data, err := vfs.ReadFile(db.fs, path)
	if err != nil {
		return err
	}
	off := 0
	for off+8 <= len(data) {
		kl := int(binary.LittleEndian.Uint32(data[off : off+4]))
		vl := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		if kl == 0 || off+8+kl+vl > len(data) {
			break // torn tail record: end of valid log
		}
		key := string(data[off+8 : off+8+kl])
		val := append([]byte(nil), data[off+8+kl:off+8+kl+vl]...)
		db.mem[key] = val
		db.memBytes += kl + vl
		off += 8 + kl + vl
	}
	return nil
}

// Put inserts or updates a key.
func (db *DB) Put(key string, val []byte) error {
	db.stats.Puts++
	rec := walRecord(key, val)
	if _, err := db.wal.Write(rec); err != nil {
		return err
	}
	db.stats.WALBytes += int64(len(rec))
	db.walBytes += len(rec)
	if db.opts.SyncWrites {
		if err := db.wal.Sync(); err != nil {
			return err
		}
	}
	db.mem[key] = append([]byte(nil), val...)
	db.memBytes += len(key) + len(val)
	if db.memBytes >= db.opts.MemtableBytes {
		return db.flush()
	}
	return nil
}

// Delete removes a key (tombstone).
func (db *DB) Delete(key string) error {
	return db.Put(key, tombstone)
}

// Get returns the latest value, or vfs.ErrNotExist.
func (db *DB) Get(key string) ([]byte, error) {
	db.stats.Gets++
	if v, ok := db.mem[key]; ok {
		if bytes.Equal(v, tombstone) {
			return nil, vfs.ErrNotExist
		}
		return v, nil
	}
	if db.getBuf == nil {
		db.getBuf = make([]byte, getWindow)
	}
	for _, t := range db.l0 {
		if v, ok, err := t.get(key, db.getBuf); err != nil {
			return nil, err
		} else if ok {
			if bytes.Equal(v, tombstone) {
				return nil, vfs.ErrNotExist
			}
			return v, nil
		}
	}
	if db.l1 != nil {
		if v, ok, err := db.l1.get(key, db.getBuf); err != nil {
			return nil, err
		} else if ok {
			if bytes.Equal(v, tombstone) {
				return nil, vfs.ErrNotExist
			}
			return v, nil
		}
	}
	return nil, vfs.ErrNotExist
}

// Scan returns up to count key-value pairs with key >= start, in order
// (YCSB workload E).
type KV struct {
	Key string
	Val []byte
}

// Scan merges the memtable and all tables.
func (db *DB) Scan(start string, count int) ([]KV, error) {
	db.stats.Scans++
	merged := make(map[string][]byte)
	// Oldest source first so newer levels overwrite.
	if db.l1 != nil {
		if err := db.l1.scanInto(merged, start, count*4); err != nil {
			return nil, err
		}
	}
	for i := len(db.l0) - 1; i >= 0; i-- {
		if err := db.l0[i].scanInto(merged, start, count*4); err != nil {
			return nil, err
		}
	}
	for k, v := range db.mem {
		if k >= start {
			merged[k] = v
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		if !bytes.Equal(merged[k], tombstone) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > count {
		keys = keys[:count]
	}
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: k, Val: merged[k]}
	}
	return out, nil
}

// flush writes the memtable to a new level-0 table and rotates the WAL.
func (db *DB) flush() error {
	db.stats.Flushes++
	name := fmt.Sprintf("tbl-%06d", db.nextTbl)
	db.nextTbl++
	t, err := writeTable(db.fs, db.path(name), sortedKVs(db.mem), db.opts.IndexEvery)
	if err != nil {
		return err
	}
	db.l0 = append([]*table{t}, db.l0...)
	db.mem = make(map[string][]byte)
	db.memBytes = 0
	// The flushed data is durable: the old WAL can go.
	oldWAL := db.wal.Path()
	if err := db.rotateWAL(); err != nil {
		return err
	}
	if err := db.fs.Unlink(oldWAL); err != nil {
		return err
	}
	if len(db.l0) >= db.opts.L0CompactAt {
		return db.compact()
	}
	return nil
}

// compact merges level 0 and level 1 into a fresh level-1 table —
// LevelDB's background compaction, the sequential-read + sequential-write
// phase of the paper's workloads.
func (db *DB) compact() error {
	db.stats.Compactions++
	merged := make(map[string][]byte)
	if db.l1 != nil {
		if err := db.l1.scanInto(merged, "", 1<<30); err != nil {
			return err
		}
	}
	for i := len(db.l0) - 1; i >= 0; i-- {
		if err := db.l0[i].scanInto(merged, "", 1<<30); err != nil {
			return err
		}
	}
	// Tombstones die at the bottom level.
	for k, v := range merged {
		if bytes.Equal(v, tombstone) {
			delete(merged, k)
		}
	}
	name := fmt.Sprintf("tbl-l1-%06d", db.nextTbl)
	db.nextTbl++
	tmp := db.path(name + ".tmp")
	t, err := writeTable(db.fs, tmp, sortedKVs(merged), db.opts.IndexEvery)
	if err != nil {
		return err
	}
	if err := db.fs.Rename(tmp, db.path(name)); err != nil {
		return err
	}
	t.path = db.path(name)
	// Drop the inputs.
	old := db.l0
	oldL1 := db.l1
	db.l0 = nil
	db.l1 = t
	for _, ot := range old {
		ot.close()
		if err := db.fs.Unlink(ot.path); err != nil {
			return err
		}
	}
	if oldL1 != nil {
		oldL1.close()
		if err := db.fs.Unlink(oldL1.path); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces the memtable out (used at clean shutdown).
func (db *DB) Flush() error {
	if db.memBytes == 0 {
		return nil
	}
	return db.flush()
}

// Close flushes and releases the store. The tables are released even
// when the WAL sync fails, so an error return never leaks their
// mappings.
func (db *DB) Close() error {
	err := db.Flush()
	if err == nil && db.wal != nil {
		err = db.wal.Sync()
	}
	if db.wal != nil {
		if cerr := db.wal.Close(); err == nil {
			err = cerr
		}
	}
	for _, t := range db.l0 {
		t.close()
	}
	if db.l1 != nil {
		db.l1.close()
	}
	return err
}

// Stats returns engine counters.
func (db *DB) Stats() Stats { return db.stats }

func sortedKVs(m map[string][]byte) []KV {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: k, Val: m[k]}
	}
	return out
}

var _ = io.EOF
