package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"os"
	"syscall"
	"testing"
)

// frameOffsets returns the byte offset of every record frame in a segment.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	for off := 0; off+recordHeaderSize <= len(data); {
		offs = append(offs, off)
		off += recordHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
	}
	return offs
}

// TestWALMidSegmentRotIsCorrupt: a flipped byte inside the active segment
// is rot, not a torn write, when valid records follow it. Recovery must
// refuse with ErrCorrupt instead of truncating there — that would silently
// drop every acknowledged record after the damage. The same flip in the
// last record is indistinguishable from a tear and is truncated as one.
func TestWALMidSegmentRotIsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name      string
		record    int // 0-based record whose body is damaged
		wantErr   bool
		recovered int
	}{
		{"mid-segment", 1, true, 0},
		{"last record", 4, false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir, 0, nil)
			appendN(t, w, 1, 5)
			w.Close()
			segs, _ := listSegments(dir)
			data, err := os.ReadFile(segs[0].path)
			if err != nil {
				t.Fatal(err)
			}
			offs := frameOffsets(t, data)
			if len(offs) != 5 {
				t.Fatalf("found %d frames, want 5", len(offs))
			}
			data[offs[tc.record]+recordHeaderSize+2] ^= 0x40
			if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			n := 0
			w2, err := openWAL(dir, walOptions{}, func(Record) error { n++; return nil })
			if tc.wantErr {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open after mid-segment rot = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if n != tc.recovered || w2.LastSeq() != uint64(tc.recovered) {
				t.Fatalf("recovered %d records (LastSeq %d), want %d", n, w2.LastSeq(), tc.recovered)
			}
		})
	}
}

// fullDisk accepts room more bytes, then fails every write with ENOSPC —
// a device filling up part-way through a flush.
type fullDisk struct {
	f    *os.File
	room int
}

func (d *fullDisk) Write(p []byte) (int, error) {
	if len(p) <= d.room {
		d.room -= len(p)
		return d.f.Write(p)
	}
	n, _ := d.f.Write(p[:d.room])
	d.room = 0
	return n, syscall.ENOSPC
}

// TestWALNoSpaceIsStickyAndRecoverable: ENOSPC part-way through a group
// commit fails that Sync with the device's error and every append after it
// (nothing later may be acknowledged on top of a record that never landed),
// and leaves at most a torn frame on disk, which recovery truncates back
// to the last acknowledged record.
func TestWALNoSpaceIsStickyAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0, nil)
	appendN(t, w, 1, 3)
	w.mu.Lock()
	w.bw = bufio.NewWriter(&fullDisk{f: w.f, room: 5})
	w.mu.Unlock()
	seq, err := w.Append("op", []byte(`{"i":4}`))
	if err != nil {
		t.Fatalf("buffered append = %v", err)
	}
	if err := w.Sync(seq); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sync onto a full disk = %v, want ENOSPC", err)
	}
	if _, err := w.Append("op", nil); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after ENOSPC = %v, want the sticky ENOSPC", err)
	}
	w.Close()

	n := 0
	w2 := openTestWAL(t, dir, 0, func(Record) error { n++; return nil })
	defer w2.Close()
	if n != 3 || w2.LastSeq() != 3 {
		t.Fatalf("recovered %d records (LastSeq %d), want the 3 acknowledged", n, w2.LastSeq())
	}
	appendN(t, w2, 4, 4)
}

// TestArchiveAfterShipsOnlyTheDelta: a requester whose cursor the log still
// covers gets exactly the records after it and no snapshot; one behind the
// compaction horizon or ahead of the log gets the full snapshot + tail.
func TestArchiveAfterShipsOnlyTheDelta(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 1; i <= 6; i++ {
		if i == 3 {
			if err := st.WriteSnapshot(2, 3, []byte(`{"epoch":3}`)); err != nil {
				t.Fatal(err)
			}
		}
		seq, err := st.Append("op", map[string]int{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Sync(seq); err != nil {
			t.Fatal(err)
		}
	}
	seqs := func(a *Archive) (out []uint64) {
		for _, r := range a.Tail {
			out = append(out, r.Seq)
		}
		return out
	}
	for _, tc := range []struct {
		after uint64
		delta bool
		tail  []uint64
	}{
		{4, true, []uint64{5, 6}},
		{2, true, []uint64{3, 4, 5, 6}},
		{6, true, nil},
		{1, false, []uint64{3, 4, 5, 6}}, // behind the snapshot
		{9, false, []uint64{3, 4, 5, 6}}, // ahead of this log
	} {
		arch, err := st.ArchiveAfter(tc.after)
		if err != nil {
			t.Fatal(err)
		}
		got := seqs(arch)
		if arch.Delta != tc.delta || len(got) != len(tc.tail) || (arch.Snapshot != nil) == tc.delta {
			t.Fatalf("ArchiveAfter(%d) = delta %v, snapshot %v, tail %v; want delta %v, tail %v",
				tc.after, arch.Delta, arch.Snapshot != nil, got, tc.delta, tc.tail)
		}
		for i := range got {
			if got[i] != tc.tail[i] {
				t.Fatalf("ArchiveAfter(%d) tail = %v, want %v", tc.after, got, tc.tail)
			}
		}
		if !tc.delta && (arch.SnapshotSeq != 2 || arch.Epoch != 3) {
			t.Fatalf("full archive covers seq %d epoch %d, want 2 and 3", arch.SnapshotSeq, arch.Epoch)
		}
	}
}
