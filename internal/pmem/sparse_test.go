package pmem

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"splitfs/internal/sim"
)

// flatDev is a reference model of the device in the flat representation
// the sparse images replaced: whole-capacity volatile and durable slices
// and one map of modified-line states, torn in sorted line order. It has
// no clock, no shards and no locks; TestSparseMatchesFlat drives it and
// a Device with the same operations and compares everything observable.
type flatDev struct {
	data, persisted []byte
	lines           map[int64]lineState
	wear            []uint32
	frozen          bool
	armedAt         int64
	rng             *sim.RNG
	events          int64
	ev              EventStats
	st              Stats
}

func newFlatDev(size int64) *flatDev {
	return &flatDev{
		data:      make([]byte, size),
		persisted: make([]byte, size),
		lines:     map[int64]lineState{},
		wear:      make([]uint32, (size+sim.BlockSize-1)/sim.BlockSize),
	}
}

func (f *flatDev) write(off int64, p []byte, st lineState) {
	if len(p) == 0 {
		return
	}
	copy(f.data[off:], p)
	end := off + int64(len(p))
	for ln := off / sim.CacheLine; ln <= (end-1)/sim.CacheLine; ln++ {
		if st != lineDirty || f.lines[ln] == 0 {
			f.lines[ln] = st
		}
	}
	for b := off / sim.BlockSize; b <= (end-1)/sim.BlockSize; b++ {
		f.wear[b]++
	}
}

func (f *flatDev) event(kind EventKind) {
	f.events++
	switch kind {
	case EvStore:
		f.ev.Stores++
	case EvStoreNT:
		f.ev.StoresNT++
	case EvFlush:
		f.ev.Flushes++
	case EvFence:
		f.ev.Fences++
	}
	if f.armedAt != 0 && f.events == f.armedAt && !f.frozen {
		f.tear(f.rng)
		f.frozen = true
	}
}

func (f *flatDev) StoreNT(off int64, p []byte) {
	f.write(off, p, linePending)
	f.st.BytesWrittenNT += int64(len(p))
	f.event(EvStoreNT)
}

func (f *flatDev) Store(off int64, p []byte) {
	f.write(off, p, lineDirty)
	f.st.BytesWrittenCached += int64(len(p))
	f.event(EvStore)
}

func (f *flatDev) StoreBuffered(off int64, p []byte) {
	f.write(off, p, lineBuffered)
	f.st.BytesWrittenCached += int64(len(p))
}

func (f *flatDev) Flush(off int64, n int) {
	if n <= 0 {
		return
	}
	dirty := int64(0)
	for ln := off / sim.CacheLine; ln <= (off+int64(n)-1)/sim.CacheLine; ln++ {
		if st := f.lines[ln]; st == lineDirty || st == lineBuffered {
			f.lines[ln] = linePending
			dirty++
		}
	}
	f.st.Flushes += dirty
	f.event(EvFlush)
}

func (f *flatDev) Fence() {
	f.st.Fences++
	for ln, st := range f.lines {
		if st != linePending {
			continue
		}
		if !f.frozen {
			off := ln * sim.CacheLine
			copy(f.persisted[off:off+sim.CacheLine], f.data[off:off+sim.CacheLine])
		}
		delete(f.lines, ln)
		f.st.LinesPersisted++
	}
	f.event(EvFence)
}

func (f *flatDev) tear(rng *sim.RNG) {
	if rng == nil {
		return
	}
	var lns []int64
	for ln, st := range f.lines {
		if st != lineBuffered {
			lns = append(lns, ln)
		}
	}
	sort.Slice(lns, func(i, j int) bool { return lns[i] < lns[j] })
	for _, ln := range lns {
		off := ln * sim.CacheLine
		for w := off; w < off+sim.CacheLine; w += 8 {
			if rng.Uint64()&1 == 0 {
				copy(f.persisted[w:w+8], f.data[w:w+8])
			}
		}
	}
}

func (f *flatDev) ArmCrash(k int64, rng *sim.RNG) { f.armedAt, f.rng = k, rng }

func (f *flatDev) Crash(rng *sim.RNG) {
	if !f.frozen {
		f.tear(rng)
	}
	f.lines = map[int64]lineState{}
	f.frozen = false
	f.armedAt, f.rng = 0, nil
	copy(f.data, f.persisted)
}

// durableImage returns d's durable image. Caller must not race stores.
func durableImage(d *Device) []byte {
	out := make([]byte, d.Size())
	for pi, pg := range d.pages {
		if pg != nil && pg.dur != nil {
			copy(out[int64(pi)*pageSize:], pg.dur[:])
		}
	}
	return out
}

func compareDevices(t *testing.T, step string, d *Device, f *flatDev) {
	t.Helper()
	if got := image(d, int(d.Size())); !bytes.Equal(got, f.data) {
		t.Fatalf("%s: volatile image diverges at byte %d", step, firstDiff(got, f.data))
	}
	if got := durableImage(d); !bytes.Equal(got, f.persisted) {
		t.Fatalf("%s: durable image diverges at byte %d", step, firstDiff(got, f.persisted))
	}
	st := d.Stats()
	st.BytesRead = 0 // the image reads above bypass the counters; the flat model has none
	if st != f.st {
		t.Fatalf("%s: Stats %+v, flat %+v", step, st, f.st)
	}
	if ev := d.EventStats(); ev != f.ev || d.Events() != f.events {
		t.Fatalf("%s: EventStats %+v (%d), flat %+v (%d)", step, ev, d.Events(), f.ev, f.events)
	}
	if n := d.UnpersistedLines(); n != len(f.lines) {
		t.Fatalf("%s: UnpersistedLines %d, flat %d", step, n, len(f.lines))
	}
	for b := range f.wear {
		if w := d.Wear(int64(b) * sim.BlockSize); w != f.wear[b] {
			t.Fatalf("%s: block %d wear %d, flat %d", step, b, w, f.wear[b])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestSparseMatchesFlat drives the sparse device and the flat reference
// with the same seeded random operation sequences — ranges biased to
// straddle page and shard boundaries, zero-length and all-zero stores,
// armed crashes and torn crashes — and after every step compares the
// full volatile and durable images, Stats, EventStats, UnpersistedLines
// and wear.
func TestSparseMatchesFlat(t *testing.T) {
	const size = 64 << 10 // 16 pages; 4 shards of 4 pages each
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			d := New(Config{Size: size, Clock: sim.NewClock(), TrackPersistence: true,
				TrackWear: true, Shards: 4})
			f := newFlatDev(size)
			if d.Shards() != 4 {
				t.Fatalf("Shards() = %d, want 4", d.Shards())
			}
			span := d.shardSpan
			rangeOf := func() (int64, int) {
				var off int64
				switch rng.Intn(3) {
				case 0: // anywhere
					off = int64(rng.Intn(size))
				case 1: // near a page boundary
					off = int64(rng.Intn(size/pageSize))*pageSize + int64(rng.Intn(256)) - 128
				default: // near a shard boundary
					off = int64(rng.Intn(size/int(span)))*span + int64(rng.Intn(256)) - 128
				}
				n := rng.Intn(600)
				switch rng.Intn(8) {
				case 0:
					n = 0
				case 1:
					n = rng.Intn(2*pageSize + 1)
				}
				off = max(off, 0)
				if off+int64(n) > size {
					n = int(size - off)
				}
				return off, n
			}
			// A quarter of the stores write zeros.
			payload := func(n int) []byte {
				p := make([]byte, n)
				if rng.Intn(4) == 0 {
					return p
				}
				for i := range p {
					p[i] = byte(rng.Uint64() | 1)
				}
				return p
			}
			for step := 0; step < 300; step++ {
				var desc string
				switch op := rng.Intn(100); {
				case op < 22:
					off, n := rangeOf()
					p := payload(n)
					d.StoreNT(off, p, sim.CatPMData)
					f.StoreNT(off, p)
					desc = fmt.Sprintf("StoreNT(%d, %d)", off, n)
				case op < 44:
					off, n := rangeOf()
					p := payload(n)
					d.Store(off, p, sim.CatPMMeta)
					f.Store(off, p)
					desc = fmt.Sprintf("Store(%d, %d)", off, n)
				case op < 56:
					off, n := rangeOf()
					p := payload(n)
					d.StoreBuffered(off, p, sim.CatPMMeta)
					f.StoreBuffered(off, p)
					desc = fmt.Sprintf("StoreBuffered(%d, %d)", off, n)
				case op < 72:
					off, n := rangeOf()
					d.Flush(off, n, sim.CatPMMeta)
					f.Flush(off, n)
					desc = fmt.Sprintf("Flush(%d, %d)", off, n)
				case op < 90:
					d.Fence()
					f.Fence()
					desc = "Fence"
				case op < 95:
					k := d.Events() + 1 + int64(rng.Intn(20))
					s := rng.Uint64()
					var dr, fr *sim.RNG
					if s%4 != 0 {
						dr, fr = sim.NewRNG(s), sim.NewRNG(s)
					}
					d.ArmCrash(k, dr)
					f.ArmCrash(k, fr)
					desc = fmt.Sprintf("ArmCrash(%d)", k)
				default:
					s := rng.Uint64()
					var dr, fr *sim.RNG
					if s%4 != 0 {
						dr, fr = sim.NewRNG(s), sim.NewRNG(s)
					}
					if err := d.Crash(dr); err != nil {
						t.Fatal(err)
					}
					f.Crash(fr)
					desc = "Crash"
				}
				compareDevices(t, fmt.Sprintf("step %d %s", step, desc), d, f)
			}
		})
	}
}

// Regression: an empty store at an unaligned offset used to mark the
// cache line containing the offset and count a write to its block, so a
// later fence persisted bytes no flush ever covered.
func TestZeroLengthStoreTouchesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		store  func(d *Device, off int64, p []byte)
		events int64 // the empty store's persistence events
	}{
		{"StoreNT", func(d *Device, off int64, p []byte) { d.StoreNT(off, p, sim.CatPMData) }, 1},
		{"Store", func(d *Device, off int64, p []byte) { d.Store(off, p, sim.CatPMData) }, 1},
		{"StoreBuffered", func(d *Device, off int64, p []byte) { d.StoreBuffered(off, p, sim.CatPMData) }, 0},
	} {
		d := newDev(t, 1<<20)
		d.Store(64, []byte{1, 2, 3}, sim.CatPMMeta)
		before := d.Events()
		tc.store(d, 100, nil)
		if got := d.Events() - before; got != tc.events {
			t.Fatalf("%s: empty store counted %d events, want %d", tc.name, got, tc.events)
		}
		if got := d.UnpersistedLines(); got != 1 {
			t.Fatalf("%s: empty store changed line state: %d unpersisted lines, want 1", tc.name, got)
		}
		d.Fence()
		if err := d.Crash(nil); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 3)
		d.Peek(got, 64)
		if !bytes.Equal(got, []byte{0, 0, 0}) {
			t.Fatalf("%s: never-flushed bytes survived the crash: %v", tc.name, got)
		}
		if w := d.Wear(64); w != 1 {
			t.Fatalf("%s: Wear(64) = %d, want 1", tc.name, w)
		}
	}
}

// TestNewIsSparse pins the point of the sparse images: a large device
// with persistence tracking costs its page table, not its capacity.
func TestNewIsSparse(t *testing.T) {
	const size = 1 << 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(Config{Size: size, Clock: sim.NewClock(), TrackPersistence: true})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= size/100 {
		t.Fatalf("New(1 GiB) allocated %d bytes, want under %d", got, size/100)
	}
	d.StoreNT(size-8, []byte("last8byt"), sim.CatPMData)
	d.Fence()
	got := make([]byte, 16)
	d.ReadAt(got, size-16, sim.CatPMData)
	if !bytes.Equal(got, append(make([]byte, 8), "last8byt"...)) {
		t.Fatalf("tail read %q", got)
	}
}

// TestConcurrentFirstTouch has several goroutines allocate the same
// untouched pages at once, with stores straddling page and shard
// boundaries, while another goroutine fences; run it under the race
// detector. Each goroutine owns distinct cache lines, so the final
// durable image must hold every goroutine's bytes.
func TestConcurrentFirstTouch(t *testing.T) {
	const (
		size    = 256 << 10
		writers = 8
		owned   = 2 * sim.CacheLine // bytes per goroutine per boundary
	)
	for round := 0; round < 20; round++ {
		d := New(Config{Size: size, Clock: sim.NewClock(), TrackPersistence: true, Shards: 8})
		span := d.shardSpan
		// Shard boundaries and a page boundary inside each shard; every
		// region starts off-centre so one goroutine's lines straddle it.
		var bounds []int64
		for b := span; b < size; b += span {
			bounds = append(bounds, b, b-span/2)
		}
		var writersDone sync.WaitGroup
		stop := make(chan struct{})
		fencer := make(chan struct{})
		go func() {
			defer close(fencer)
			for {
				select {
				case <-stop:
					return
				default:
					d.Fence()
				}
			}
		}()
		for g := 0; g < writers; g++ {
			writersDone.Add(1)
			go func(g int) {
				defer writersDone.Done()
				p := bytes.Repeat([]byte{byte(g + 1)}, owned)
				for _, b := range bounds {
					off := b - 7*sim.CacheLine + int64(g)*owned
					switch (g + round) % 3 {
					case 0:
						d.StoreNT(off, p, sim.CatPMData)
					case 1:
						d.Store(off, p, sim.CatPMData)
						d.Flush(off, len(p), sim.CatPMData)
					default:
						d.StoreBuffered(off, p, sim.CatPMMeta)
						d.Flush(off, len(p), sim.CatPMMeta)
					}
				}
			}(g)
		}
		writersDone.Wait()
		close(stop)
		<-fencer
		d.Fence()
		if n := d.UnpersistedLines(); n != 0 {
			t.Fatalf("round %d: %d lines unpersisted after the last fence", round, n)
		}
		if err := d.Crash(sim.NewRNG(uint64(round))); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, owned)
		for _, b := range bounds {
			for g := 0; g < writers; g++ {
				d.Peek(got, b-7*sim.CacheLine+int64(g)*owned)
				if !bytes.Equal(got, bytes.Repeat([]byte{byte(g + 1)}, owned)) {
					t.Fatalf("round %d: boundary %d writer %d lost its lines", round, b, g)
				}
			}
		}
	}
}
