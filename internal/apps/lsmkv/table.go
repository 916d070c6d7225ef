package lsmkv

import (
	"encoding/binary"
	"fmt"
	"io"

	"splitfs/internal/vfs"
)

// table is one immutable sorted string table.
//
// Layout: records [keyLen(4) valLen(4) key val]... then a footer:
// [indexOff(8) indexCount(4) magic(4)]. The sparse index holds every
// IndexEvery-th record as [keyLen(4) key off(8)].
type table struct {
	fs    vfs.FileSystem
	path  string
	f     vfs.File
	size  int64 // bytes of record area
	index []indexEntry
}

type indexEntry struct {
	key string
	off int64
}

const tableMagic = 0x55B1E5

// writeTable streams sorted key-value pairs into a new table file.
func writeTable(fs vfs.FileSystem, path string, kvs []KV, indexEvery int) (*table, error) {
	f, err := fs.OpenFile(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0644)
	if err != nil {
		return nil, err
	}
	t := &table{fs: fs, path: path, f: f}
	var buf []byte
	off := int64(0)
	for i, kv := range kvs {
		if i%indexEvery == 0 {
			t.index = append(t.index, indexEntry{key: kv.Key, off: off})
		}
		rec := walRecord(kv.Key, kv.Val)
		buf = append(buf, rec...)
		off += int64(len(rec))
		// Write in ~64 KB chunks for sequential IO.
		if len(buf) >= 64<<10 {
			if _, err := f.Write(buf); err != nil {
				return nil, err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
	}
	t.size = off
	// Index block + footer.
	var ib []byte
	for _, e := range t.index {
		var kl [4]byte
		binary.LittleEndian.PutUint32(kl[:], uint32(len(e.key)))
		ib = append(ib, kl[:]...)
		ib = append(ib, e.key...)
		var ob [8]byte
		binary.LittleEndian.PutUint64(ob[:], uint64(e.off))
		ib = append(ib, ob[:]...)
	}
	footer := make([]byte, 16)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(off))
	binary.LittleEndian.PutUint32(footer[8:12], uint32(len(t.index)))
	binary.LittleEndian.PutUint32(footer[12:16], tableMagic)
	if _, err := f.Write(append(ib, footer...)); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	return t, nil
}

// openTable attaches to an existing table and loads its index.
func openTable(fs vfs.FileSystem, path string, indexEvery int) (*table, error) {
	f, err := fs.OpenFile(path, vfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	footer := make([]byte, 16)
	if _, err := f.ReadAt(footer, info.Size-16); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(footer[12:16]) != tableMagic {
		return nil, fmt.Errorf("lsmkv: %s: bad table magic", path)
	}
	t := &table{fs: fs, path: path, f: f}
	t.size = int64(binary.LittleEndian.Uint64(footer[0:8]))
	count := int(binary.LittleEndian.Uint32(footer[8:12]))
	ib := make([]byte, info.Size-16-t.size)
	if len(ib) > 0 {
		if _, err := f.ReadAt(ib, t.size); err != nil {
			return nil, err
		}
	}
	pos := 0
	for i := 0; i < count; i++ {
		kl := int(binary.LittleEndian.Uint32(ib[pos : pos+4]))
		key := string(ib[pos+4 : pos+4+kl])
		off := int64(binary.LittleEndian.Uint64(ib[pos+4+kl : pos+12+kl]))
		t.index = append(t.index, indexEntry{key: key, off: off})
		pos += 12 + kl
	}
	return t, nil
}

// seekOff returns the record offset to start scanning from for key.
func (t *table) seekOff(key string) int64 {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.index[mid].key <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return t.index[lo-1].off
}

// getWindow is the read window of a point lookup; records are small
// relative to the index stride.
const getWindow = 32 << 10

// get performs a point lookup: index seek + bounded sequential record
// scan, reading getWindow bytes at a time into buf. The result never
// aliases buf, so callers reuse one buffer across lookups.
func (t *table) get(key string, buf []byte) ([]byte, bool, error) {
	off := t.seekOff(key)
	for off < t.size {
		n, err := t.f.ReadAt(buf, off)
		if err != nil && err != io.EOF && n == 0 {
			return nil, false, err
		}
		window := buf[:n]
		pos := 0
		for pos+8 <= len(window) {
			kl := int(binary.LittleEndian.Uint32(window[pos : pos+4]))
			vl := int(binary.LittleEndian.Uint32(window[pos+4 : pos+8]))
			if pos+8+kl+vl > len(window) {
				break // record straddles the window; refill
			}
			k := string(window[pos+8 : pos+8+kl])
			if k == key {
				v := append([]byte(nil), window[pos+8+kl:pos+8+kl+vl]...)
				return v, true, nil
			}
			if k > key {
				return nil, false, nil
			}
			pos += 8 + kl + vl
		}
		if pos == 0 {
			return nil, false, fmt.Errorf("lsmkv: %s: record larger than window", t.path)
		}
		off += int64(pos)
		if off+8 > t.size {
			break
		}
	}
	return nil, false, nil
}

// scanInto merges records with key >= start into dst, up to max entries
// read from this table.
func (t *table) scanInto(dst map[string][]byte, start string, max int) error {
	off := t.seekOff(start)
	buf := make([]byte, 64<<10)
	added := 0
	for off < t.size && added < max {
		n, err := t.f.ReadAt(buf, off)
		if err != nil && err != io.EOF && n == 0 {
			return err
		}
		window := buf[:n]
		pos := 0
		for pos+8 <= len(window) && added < max {
			kl := int(binary.LittleEndian.Uint32(window[pos : pos+4]))
			vl := int(binary.LittleEndian.Uint32(window[pos+4 : pos+8]))
			if pos+8+kl+vl > len(window) {
				break
			}
			k := string(window[pos+8 : pos+8+kl])
			if k >= start {
				dst[k] = append([]byte(nil), window[pos+8+kl:pos+8+kl+vl]...)
				added++
			}
			pos += 8 + kl + vl
		}
		if pos == 0 {
			break
		}
		off += int64(pos)
	}
	return nil
}

func (t *table) close() {
	if t.f != nil {
		t.f.Close()
	}
}
