package splitfs

import (
	"bytes"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Regression: a strict FS recovered from an image crashed before its
// first write (even before any op-log file became durable) must have a
// working operation log — the first post-recovery write used to find
// fs.olog unusable state — and everything the recovered instance sets up
// must itself be durable, so a second crash right after recovery+write
// still recovers the write.
func TestStrictRecoverFromPreFirstWriteCrash(t *testing.T) {
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: clk, TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: Strict, StagingFiles: 2, StagingFileBytes: 1 << 20, OpLogBytes: 128 << 10}

	// Crash the image before a strict instance ever existed: no op-log
	// file, no staging directory.
	_ = kfs
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs2, _, err := RecoverFS(kfs2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The first strict write through the recovered instance must work
	// (it appends to the op log RecoverFS created).
	payload := []byte("first write after recovery")
	f, err := fs2.OpenFile("/post", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("first post-recovery strict write: %v", err)
	}

	// Crash again WITHOUT an fsync: the strict guarantee says the logged
	// write survives — which requires the op log and staging files
	// RecoverFS created to have durable metadata by the time the entry
	// was logged.
	if err := dev.Crash(sim.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
	kfs3, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs3, report, err := RecoverFS(kfs3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed == 0 {
		t.Fatalf("unfsynced strict write not replayed: %+v", report)
	}
	got, err := vfs.ReadFile(fs3, "/post")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("post-recovery write lost: %q, want %q", got, payload)
	}
}

// Regression: in POSIX mode a rename sits in the running journal
// transaction, and SyncAll with no staged data in any open file used to
// return without committing it, so a crash after the acknowledged
// barrier brought the old name back. The served stack's resumable
// sessions trim their replay logs at that barrier, which turned the lost
// rename into a permanent divergence after resume.
func TestPOSIXSyncAllCommitsNamespace(t *testing.T) {
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: clk, TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: POSIX, StagingFiles: 2, StagingFileBytes: 1 << 20}
	fs, err := New(kfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile("/a", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(sim.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs2, _, err := RecoverFS(kfs2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/b"} {
		if _, err := fs2.Stat(p); err == nil {
			t.Errorf("%s exists after a crash following SyncAll", p)
		}
	}
	if info, err := fs2.Stat("/d"); err != nil || !info.IsDir {
		t.Errorf("/d lost after a crash following SyncAll: %v", err)
	}
}
