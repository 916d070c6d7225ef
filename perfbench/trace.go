// Spans are read from the wall clock.
//
// +determinism:wallclock

package main

import (
	"sync"
	"sync/atomic"
	"time"

	"splitfs/internal/vfs"
)

// The traced run records spans only at the benchmark's own boundaries:
// each workload op, each call through the timing wrapper the benchmark
// hands to lsmkv (or, on served-mix, to each session's client), and on
// served-mix each call through the same wrapper around the backend
// handed to server.New. Spans stay in memory until the run ends.

// layer names the boundary a span was recorded at.
type layer uint8

const (
	layerOp      layer = iota // one workload op
	layerVFS                  // a call into the file system under test
	layerBackend              // served-mix: the server's call into its backend
)

// callKind classifies a file-system call; the eight kinds are the ones
// the per-layer vfs.* and server.* metrics report.
type callKind uint8

const (
	kWrite callKind = iota
	kRead
	kSync
	kOpen
	kClose
	kRename
	kUnlink
	kStat
	numKinds
)

var kindNames = [numKinds]string{"write", "read", "sync", "open", "close", "rename", "unlink", "stat"}

// span is one timed call. seq is the sequence number of the workload op
// that caused it, so a span's parent is the op span with the same
// session and seq.
type span struct {
	layer      layer
	kind       callKind
	seq        int64
	start, end int64 // ns since the tracer's base
}

// session is one closed-loop client's trace state. A session has at most
// one op outstanding, so every span recorded under it belongs to the op
// whose seq is current.
type session struct {
	on  atomic.Bool  // spans are recorded for the current op
	seq atomic.Int64 // the current op's sequence number
	mu  sync.Mutex
	buf []span
}

// tracer owns the monotonic time base and the per-session span buffers.
type tracer struct {
	base time.Time
	sess []*session
}

func newTracer(sessions int) *tracer {
	t := &tracer{base: time.Now(), sess: make([]*session, sessions)}
	for i := range t.sess {
		t.sess[i] = &session{}
	}
	return t
}

// now returns monotonic ns since the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin starts a span for session s; it reports false, without reading
// the clock, when s is not tracing its current op.
func (t *tracer) begin(s int) (int64, bool) {
	if s < 0 || s >= len(t.sess) || !t.sess[s].on.Load() {
		return 0, false
	}
	return t.now(), true
}

// end records a span begun by begin.
func (t *tracer) end(s int, l layer, k callKind, start int64) {
	end := t.now()
	ss := t.sess[s]
	ss.mu.Lock()
	ss.buf = append(ss.buf, span{layer: l, kind: k, seq: ss.seq.Load(), start: start, end: end})
	ss.mu.Unlock()
}

// spans returns session s's recorded spans. Call it only after every
// goroutine that records into s has finished.
func (t *tracer) spans(s int) []span {
	ss := t.sess[s]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.buf
}

// tracedFS is the timing wrapper: it times each call into the wrapped
// file system, and each call on the files it opens, as a span of its
// layer under the session sessionOf assigns to the call's path.
type tracedFS struct {
	vfs.FileSystem
	tr        *tracer
	layer     layer
	sessionOf func(path string) int
}

// syncAller is the group-sync capability the server probes its backend
// for (internal/server, session.go).
type syncAller interface{ SyncAll() error }

// tracedSyncAllFS is the wrapper over a file system with SyncAll. The
// server feature-detects SyncAll with a type assertion, so the wrapper
// must have the method exactly when the wrapped file system does, or
// wrapping would change which code path the server runs.
type tracedSyncAllFS struct{ *tracedFS }

func (w tracedSyncAllFS) SyncAll() error { return w.FileSystem.(syncAller).SyncAll() }

func wrapFS(fs vfs.FileSystem, tr *tracer, l layer, sessionOf func(string) int) vfs.FileSystem {
	w := &tracedFS{FileSystem: fs, tr: tr, layer: l, sessionOf: sessionOf}
	if _, ok := fs.(syncAller); ok {
		return tracedSyncAllFS{w}
	}
	return w
}

func (w *tracedFS) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	s := w.sessionOf(path)
	start, on := w.tr.begin(s)
	f, err := w.FileSystem.OpenFile(path, flag, perm)
	if on {
		w.tr.end(s, w.layer, kOpen, start)
	}
	if err != nil {
		return f, err
	}
	tf := &tracedFile{File: f, fs: w, sess: s}
	if m, ok := f.(vfs.Mappable); ok {
		// The server grants leases only on files that are vfs.Mappable
		// (internal/server, lease.go); forward the capability.
		return &tracedMappableFile{tracedFile: tf, m: m}, nil
	}
	return tf, nil
}

func (w *tracedFS) Unlink(path string) error {
	s := w.sessionOf(path)
	start, on := w.tr.begin(s)
	err := w.FileSystem.Unlink(path)
	if on {
		w.tr.end(s, w.layer, kUnlink, start)
	}
	return err
}

func (w *tracedFS) Rename(oldPath, newPath string) error {
	s := w.sessionOf(oldPath)
	start, on := w.tr.begin(s)
	err := w.FileSystem.Rename(oldPath, newPath)
	if on {
		w.tr.end(s, w.layer, kRename, start)
	}
	return err
}

func (w *tracedFS) Stat(path string) (vfs.FileInfo, error) {
	s := w.sessionOf(path)
	start, on := w.tr.begin(s)
	fi, err := w.FileSystem.Stat(path)
	if on {
		w.tr.end(s, w.layer, kStat, start)
	}
	return fi, err
}

// tracedFile times the data and handle calls of one open file. Seek,
// Truncate and Path pass through untimed: no workload issues them in
// its measured phase.
type tracedFile struct {
	vfs.File
	fs   *tracedFS
	sess int
}

func (f *tracedFile) begin() (int64, bool) { return f.fs.tr.begin(f.sess) }

func (f *tracedFile) end(k callKind, start int64) { f.fs.tr.end(f.sess, f.fs.layer, k, start) }

func (f *tracedFile) Read(p []byte) (int, error) {
	start, on := f.begin()
	n, err := f.File.Read(p)
	if on {
		f.end(kRead, start)
	}
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start, on := f.begin()
	n, err := f.File.ReadAt(p, off)
	if on {
		f.end(kRead, start)
	}
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start, on := f.begin()
	n, err := f.File.Write(p)
	if on {
		f.end(kWrite, start)
	}
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start, on := f.begin()
	n, err := f.File.WriteAt(p, off)
	if on {
		f.end(kWrite, start)
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	start, on := f.begin()
	err := f.File.Sync()
	if on {
		f.end(kSync, start)
	}
	return err
}

func (f *tracedFile) Close() error {
	start, on := f.begin()
	err := f.File.Close()
	if on {
		f.end(kClose, start)
	}
	return err
}

func (f *tracedFile) Stat() (vfs.FileInfo, error) {
	start, on := f.begin()
	fi, err := f.File.Stat()
	if on {
		f.end(kStat, start)
	}
	return fi, err
}

// tracedMappableFile is the wrapper over a vfs.Mappable file. The
// mapping calls pass through untimed.
type tracedMappableFile struct {
	*tracedFile
	m vfs.Mappable
}

func (f *tracedMappableFile) MapExtents(off, length int64) ([]vfs.Extent, uint64, error) {
	return f.m.MapExtents(off, length)
}

func (f *tracedMappableFile) MapEpoch() uint64 { return f.m.MapEpoch() }

func (f *tracedMappableFile) LoadMapped(p []byte, devOff int64) int { return f.m.LoadMapped(p, devOff) }
