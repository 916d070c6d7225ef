package pmem

import (
	"testing"

	"splitfs/internal/sim"
)

// Layer benchmarks of the device itself, in wall time and allocations.
// Run them with
//
//	go test -run '^$' -bench . ./internal/pmem

// sinkDev keeps BenchmarkNew's result live.
var sinkDev *Device

func BenchmarkNew(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int64
	}{{"32MiB", 32 << 20}, {"1GiB", 1 << 30}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			clk := sim.NewClock()
			for i := 0; i < b.N; i++ {
				sinkDev = New(Config{Size: bc.size, Clock: clk, TrackPersistence: true})
			}
		})
	}
}

// BenchmarkStoreNTFence is the data path's persist: one 4 KB
// non-temporal store and the fence that makes it durable.
func BenchmarkStoreNTFence(b *testing.B) {
	b.ReportAllocs()
	clk := sim.NewClock()
	d := New(Config{Size: 32 << 20, Clock: clk, TrackPersistence: true})
	blk := make([]byte, sim.BlockSize)
	const blocks = 1024
	b.SetBytes(sim.BlockSize)
	for i := 0; i < b.N; i++ {
		d.StoreNT(int64(i%blocks)*sim.BlockSize, blk, sim.CatPMData)
		d.Fence()
	}
	b.ReportMetric(float64(clk.Now())/float64(b.N), "sim-ns/op")
}

// BenchmarkFenceBuffered is a fence with 10k buffered (journaled
// metadata) lines outstanding, which no fence drains.
func BenchmarkFenceBuffered(b *testing.B) {
	b.ReportAllocs()
	d := New(Config{Size: 32 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	const lines = 10000
	d.StoreBuffered(0, make([]byte, lines*sim.CacheLine), sim.CatPMMeta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Fence()
	}
	b.StopTimer()
	if n := d.UnpersistedLines(); n != lines {
		b.Fatalf("%d buffered lines outstanding, want %d", n, lines)
	}
}

// touch writes 256 KB across a 32 MB device: half fenced, half left in
// the write-pending queue or the cache, so a crash both rewinds and
// tears.
func touch(d *Device) {
	const chunk = 16 << 10
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := int64(0); i < 16; i++ {
		off := i * (2 << 20)
		switch i % 4 {
		case 0, 1:
			d.StoreNT(off, buf, sim.CatPMData)
		case 2:
			d.StoreNT(off, buf, sim.CatPMData)
			d.Fence()
		default:
			d.Store(off, buf, sim.CatPMMeta)
		}
	}
}

// BenchmarkCrash is a torn crash after 256 KB of touched data.
func BenchmarkCrash(b *testing.B) {
	b.ReportAllocs()
	d := New(Config{Size: 32 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		touch(d)
		b.StartTimer()
		if err := d.Crash(sim.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArmCrashFreeze arms a crash at the next event and issues it,
// so the timed region is mostly the freeze that materializes the torn
// image over 256 KB of touched data.
func BenchmarkArmCrashFreeze(b *testing.B) {
	b.ReportAllocs()
	d := New(Config{Size: 32 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := d.Crash(nil); err != nil {
			b.Fatal(err)
		}
		touch(d)
		b.StartTimer()
		d.ArmCrash(d.Events()+1, sim.NewRNG(uint64(i)))
		d.StoreNT(0, make([]byte, 8), sim.CatPMData)
		if !d.CrashFired() {
			b.Fatal("armed crash did not fire")
		}
	}
}
