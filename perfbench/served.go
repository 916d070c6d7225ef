// served-mix runs one goroutine per session against an in-process
// server.
//
// +determinism:concurrent

package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"splitfs/internal/crash"
	"splitfs/internal/obs"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// served-mix: mixSessions closed-loop sessions, each confined to its own
// subtree /s<i> of an in-process server over splitfs-strict, on the
// copy path (no leases).
const (
	mixSessions   = 2
	mixDataFiles  = 4         // per session, kept open
	mixDataCap    = 256 << 10 // a data file at this size is rotated
	mixDataInit   = 64 << 10  // each data file's size after set-up
	mixSmallSlots = 8         // small-file names per session
	ioBytes       = 4096
)

var mixSpec = crash.BackendSpec{DevBytes: 64 << 20, MaxInodes: 1024,
	StagingFiles: 8, StagingFileBytes: 1 << 20, OpLogBytes: 2 << 20}

var errMismatch = errors.New("result differs from the model")

// servedEnv is one server with its listener and connected sessions.
type servedEnv struct {
	b         *crash.Backend
	reg       *obs.Registry
	tr        *tracer
	srv       *server.Server
	ln        net.Listener
	sockDir   string
	serveDone chan error
	sess      []*mixSession
}

// sessionOfPath maps a backend path under /s<i>/ to session i.
func sessionOfPath(p string) int {
	rest, ok := strings.CutPrefix(p, "/s")
	if !ok {
		return -1
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return n
}

// setupServed creates the device and file system, pre-creates each
// session's files, starts the server on a unix socket under tmp and
// attaches every session.
func setupServed(seed uint64, tmp string) (env *servedEnv, err error) {
	b, err := crash.NewBackend("splitfs-strict", mixSpec)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	b.RegisterObs(reg)
	env = &servedEnv{b: b, reg: reg, tr: newTracer(mixSessions)}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	for i := 0; i < mixSessions; i++ {
		s := &mixSession{id: i, rng: sim.NewRNG(seed*31 + uint64(i) + 1), buf: make([]byte, ioBytes)}
		dir := fmt.Sprintf("/s%d", i)
		if err := b.FS.Mkdir(dir, 0755); err != nil {
			return env, err
		}
		for j := range s.data {
			s.data[j].path = fmt.Sprintf("/d%d", j)
			s.data[j].model = s.fill(make([]byte, mixDataInit))
			if err := vfs.WriteFile(b.FS, dir+s.data[j].path, s.data[j].model); err != nil {
				return env, err
			}
		}
		for j := range s.small {
			s.small[j].path = fmt.Sprintf("/m%d", j)
		}
		env.sess = append(env.sess, s)
	}
	env.srv = server.New(wrapFS(b.FS, env.tr, layerBackend, sessionOfPath), server.Config{})
	env.srv.RegisterObs(reg)
	if env.sockDir, err = os.MkdirTemp(tmp, "mix"); err != nil {
		return env, err
	}
	sock := filepath.Join(env.sockDir, "s")
	if env.ln, err = net.Listen("unix", sock); err != nil {
		return env, err
	}
	env.serveDone = make(chan error, 1)
	go func() { env.serveDone <- env.srv.Serve(env.ln) }()
	for i, s := range env.sess {
		if s.client, err = server.DialNetConfig("unix", sock, server.ClientConfig{Root: fmt.Sprintf("/s%d", i)}); err != nil {
			return env, err
		}
		id := i
		s.fs = wrapFS(s.client, env.tr, layerVFS, func(string) int { return id })
		for j := range s.data {
			if s.data[j].h, err = s.fs.OpenFile(s.data[j].path, vfs.O_RDWR, 0); err != nil {
				return env, err
			}
		}
	}
	return env, nil
}

// close detaches the sessions, stops the server and waits for its
// accept loop to return.
func (e *servedEnv) close() error {
	var errs []error
	for _, s := range e.sess {
		if s.client != nil {
			errs = append(errs, s.client.Close())
		}
	}
	if e.srv != nil {
		errs = append(errs, e.srv.Close())
	}
	if e.ln != nil {
		e.ln.Close() // unblocks Accept; Serve then returns nil
		errs = append(errs, <-e.serveDone)
	}
	if e.sockDir != "" {
		errs = append(errs, os.RemoveAll(e.sockDir))
	}
	return errors.Join(errs...)
}

// mixSession is one session's client and its model of the session's
// files. Ops are issued only when the model expects them to succeed.
type mixSession struct {
	id     int
	client *server.Client
	fs     vfs.FileSystem // the client, through the timing wrapper
	rng    *sim.RNG
	buf    []byte
	data   [mixDataFiles]struct {
		path  string
		h     vfs.File
		model []byte
	}
	small [mixSmallSlots]struct {
		path    string
		present bool
		size    int64
	}
	userBytes int64
	err       error
}

// fill overwrites p with generator bytes and returns it.
func (s *mixSession) fill(p []byte) []byte {
	for i := 0; i < len(p); i += 8 {
		v := s.rng.Uint64()
		for j := i; j < i+8 && j < len(p); j++ {
			p[j] = byte(v)
			v >>= 8
		}
	}
	return p
}

// op issues one op of the mix: 25% 4K appends, 35% 4K random reads,
// 10% fsync, 15% stat, 15% create, rename or unlink of a small file.
func (s *mixSession) op() error {
	switch p := s.rng.Intn(100); {
	case p < 25:
		return s.appendOp()
	case p < 60:
		return s.readOp()
	case p < 70:
		return s.data[s.rng.Intn(mixDataFiles)].h.Sync()
	case p < 85:
		return s.statOp()
	default:
		return s.metaOp()
	}
}

// appendOp appends 4K to a data file. A file that would grow past
// mixDataCap is first rotated (closed, unlinked and created again), so
// the working set stays bounded however long the run.
func (s *mixSession) appendOp() error {
	d := &s.data[s.rng.Intn(mixDataFiles)]
	if len(d.model)+ioBytes > mixDataCap {
		if err := d.h.Close(); err != nil {
			return err
		}
		if err := s.fs.Unlink(d.path); err != nil {
			return err
		}
		h, err := s.fs.OpenFile(d.path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0644)
		if err != nil {
			return err
		}
		d.h, d.model = h, d.model[:0]
	}
	p := s.fill(s.buf)
	if _, err := d.h.WriteAt(p, int64(len(d.model))); err != nil {
		return err
	}
	d.model = append(d.model, p...)
	s.userBytes += ioBytes
	return nil
}

// readOp reads 4K at a random 4K-aligned offset of a data file (every
// data file always holds at least 4K) and checks the bytes.
func (s *mixSession) readOp() error {
	d := &s.data[s.rng.Intn(mixDataFiles)]
	off := int64(s.rng.Intn(len(d.model)/ioBytes)) * ioBytes
	n, err := d.h.ReadAt(s.buf, off)
	if err != nil {
		return err
	}
	if n != ioBytes || !bytes.Equal(s.buf, d.model[off:off+ioBytes]) {
		return fmt.Errorf("read %s@%d: %w", d.path, off, errMismatch)
	}
	return nil
}

// statOp stats a data file or an existing small file by path and checks
// its size.
func (s *mixSession) statOp() error {
	path, size := "", int64(0)
	if j := s.rng.Intn(2 * mixSmallSlots); j < mixSmallSlots && s.small[j].present {
		path, size = s.small[j].path, s.small[j].size
	} else {
		d := &s.data[s.rng.Intn(mixDataFiles)]
		path, size = d.path, int64(len(d.model))
	}
	fi, err := s.fs.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size != size {
		return fmt.Errorf("stat %s: size %d, want %d: %w", path, fi.Size, size, errMismatch)
	}
	return nil
}

// metaOp creates, renames or unlinks a small file. Between two and all
// of the slots are kept occupied, so each choice is always possible.
func (s *mixSession) metaOp() error {
	var present, free []int
	for j := range s.small {
		if s.small[j].present {
			present = append(present, j)
		} else {
			free = append(free, j)
		}
	}
	choice := s.rng.Intn(3)
	switch {
	case len(present) < 2:
		choice = 0
	case len(free) == 0:
		choice = 2
	}
	switch choice {
	case 0: // create
		sm := &s.small[free[s.rng.Intn(len(free))]]
		p := s.fill(s.buf[:64+s.rng.Intn(960)])
		f, err := s.fs.OpenFile(sm.path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_EXCL, 0644)
		if err != nil {
			return err
		}
		if _, err := f.Write(p); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		sm.present, sm.size = true, int64(len(p))
		s.userBytes += int64(len(p))
	case 1: // rename onto a free name
		from := &s.small[present[s.rng.Intn(len(present))]]
		to := &s.small[free[s.rng.Intn(len(free))]]
		if err := s.fs.Rename(from.path, to.path); err != nil {
			return err
		}
		to.present, to.size = true, from.size
		from.present, from.size = false, 0
	default: // unlink
		sm := &s.small[present[s.rng.Intn(len(present))]]
		if err := s.fs.Unlink(sm.path); err != nil {
			return err
		}
		sm.present, sm.size = false, 0
	}
	return nil
}

// runServed measures served-mix: every session runs its closed loop
// from the same start until the phase ends.
func runServed(cfg config) (*measurement, error) {
	env, setupS, err := repeatSetup(cfg, func() (*servedEnv, error) { return setupServed(cfg.seed, cfg.tmp) },
		(*servedEnv).close)
	if err != nil {
		return nil, err
	}
	m := &measurement{served: true, setupS: setupS}
	m.phaseStart()
	m.before = readCounters(env.b.Clock, env.reg)
	m.tr = env.tr
	t0 := env.tr.now()
	var wg sync.WaitGroup
	for i, s := range env.sess {
		lp := newLoop(env.tr, i, cfg.budget, cfg.trace, cfg.seed+uint64(i))
		m.loops = append(m.loops, lp)
		wg.Add(1)
		go func(s *mixSession) {
			defer wg.Done()
			for lp.more() {
				start := lp.begin()
				err := s.op()
				lp.end(start, err == nil)
				if err != nil {
					s.err = err // the model no longer matches: stop this session
					break
				}
			}
			lp.finish()
		}(s)
	}
	wg.Wait()
	m.wallNs = env.tr.now() - t0
	m.after = readCounters(env.b.Clock, env.reg)
	m.phaseEnd()
	ops, _ := m.ops()
	m.counterOps = ops
	for _, s := range env.sess {
		m.userBytes += s.userBytes
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: session %d: %v\n", s.id, s.err)
		}
	}
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("served-mix teardown: %w", err)
	}
	return m, nil
}
