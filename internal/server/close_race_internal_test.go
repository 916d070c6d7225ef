package server

import (
	"errors"
	"io"
	"net"
	"testing"

	"splitfs/internal/vfs"
)

// gatedStat blocks Stat until released, holding a handshake inside
// attach (which stats a non-root session root before it checks whether
// the server is closed).
type gatedStat struct {
	vfs.FileSystem
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStat) Stat(path string) (vfs.FileInfo, error) {
	close(g.entered)
	<-g.release
	return g.FileSystem.Stat(path)
}

// gatedConn is the server's end of a connection whose Close blocks until
// released, reporting each call, so a test can hold Server.Close after it
// has marked the server closed but before the connection goes down.
type gatedConn struct {
	net.Conn
	called  chan struct{} // one send per Close call
	release chan struct{}
}

func (c *gatedConn) Close() error {
	c.called <- struct{}{}
	<-c.release
	return c.Conn.Close()
}

// Regression: a Tattach that lost the race with Close was answered with
// an Rerror "server: closed". A resumable client treats a refused attach
// as permanent, so a tenant reconnecting while a crashed daemon was being
// torn down gave up instead of resuming against its replacement. The
// handshake must get no reply: the connection just drops.
func TestAttachRacingCloseDropsConnection(t *testing.T) {
	fs := leaseTestBackend(t)
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	g := &gatedStat{FileSystem: fs, entered: make(chan struct{}), release: make(chan struct{})}
	srv := New(g, Config{})
	cs, ss := net.Pipe()
	defer cs.Close()
	sc := &gatedConn{Conn: ss, called: make(chan struct{}, 2), release: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(sc) }()

	var e enc
	e.str("/d")
	e.u8(1) // resumable
	e.u32(0)
	if err := writeFrame(cs, tAttach, 1, e.b); err != nil {
		t.Fatal(err)
	}
	reply := make(chan error, 1)
	go func() {
		typ, _, p, err := readFrame(cs)
		if err == nil && typ == rError {
			err = decodeError(p)
		}
		reply <- err
	}()

	<-g.entered // the handshake is inside attach
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	<-sc.called      // Close marked the server closed and is closing the connection
	close(g.release) // attach now finds the server closed
	<-sc.called      // ServeConn gave up on the handshake and is closing too
	close(sc.release)
	if err := <-served; !errors.Is(err, errServerClosed) {
		t.Fatalf("ServeConn returned %v, want %v", err, errServerClosed)
	}
	<-closed
	if err := <-reply; !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("client got %v from a closing server, want the connection dropped", err)
	}
}
