package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"policyflow/internal/obs"
)

func openTestWAL(t *testing.T, dir string, replayFrom uint64, replay func(Record) error) *wal {
	t.Helper()
	w, err := openWAL(dir, walOptions{Fsync: true, ReplayFrom: replayFrom}, replay)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func appendN(t *testing.T, w *wal, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		data, _ := json.Marshal(map[string]int{"i": i})
		seq, err := w.Append("op", data)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(seq); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0, nil)
	appendN(t, w, 1, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []uint64
	w2 := openTestWAL(t, dir, 0, func(rec Record) error {
		if rec.Op != "op" {
			t.Errorf("op = %q", rec.Op)
		}
		got = append(got, rec.Seq)
		return nil
	})
	defer w2.Close()
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("replayed seqs = %v", got)
	}
	if w2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d", w2.LastSeq())
	}
	// Appends continue from the recovered position.
	seq, err := w2.Append("op", nil)
	if err != nil || seq != 6 {
		t.Fatalf("next append = %d, %v", seq, err)
	}
}

func TestWALToleratesTornTail(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"partial-header": {0x10},
		"partial-body":   {0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02},
		"bad-crc": func() []byte {
			// A full frame whose checksum does not match its body.
			b := []byte{4, 0, 0, 0, 0, 0, 0, 0, 'j', 'u', 'n', 'k'}
			return b
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir, 0, nil)
			appendN(t, w, 1, 3)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(dir)
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments = %v, %v", segs, err)
			}
			f, err := os.OpenFile(segs[0].path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(garbage)
			f.Close()

			n := 0
			w2 := openTestWAL(t, dir, 0, func(Record) error { n++; return nil })
			if n != 3 || w2.LastSeq() != 3 {
				t.Fatalf("recovered %d records, LastSeq=%d", n, w2.LastSeq())
			}
			// The tear was truncated: new appends land cleanly and a third
			// open sees exactly 4 records.
			appendN(t, w2, 4, 4)
			w2.Close()
			n = 0
			w3 := openTestWAL(t, dir, 0, func(Record) error { n++; return nil })
			defer w3.Close()
			if n != 4 {
				t.Fatalf("after re-append, recovered %d records", n)
			}
		})
	}
}

func TestWALRotateCompacts(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0, nil)
	appendN(t, w, 1, 10)
	if err := w.Rotate(10); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].first != 11 {
		t.Fatalf("segments after rotate = %+v", segs)
	}
	appendN(t, w, 11, 12)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery with ReplayFrom = snapshot seq sees only the tail.
	var got []uint64
	w2 := openTestWAL(t, dir, 10, func(rec Record) error { got = append(got, rec.Seq); return nil })
	defer w2.Close()
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("tail replay = %v", got)
	}
}

func TestWALDetectsGap(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0, nil)
	appendN(t, w, 1, 6)
	if err := w.Rotate(3); err != nil { // keeps the old segment? no: covered fully -> removed
		t.Fatal(err)
	}
	w.Close()
	// The snapshot at 3 was never written; reopening with ReplayFrom 0
	// must notice records 1..6 are gone (segment deleted) only if they
	// are: Rotate(3) retains the segment because it holds records 4..6.
	n := 0
	w2, err := openWAL(dir, walOptions{ReplayFrom: 0}, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("replayed %d records, want 6 (segment with live tail retained)", n)
	}
	w2.Close()

	// A genuinely missing prefix is corruption: removing the first
	// segment leaves a gap versus ReplayFrom 0.
	w3, _ := openWAL(dir, walOptions{ReplayFrom: 6}, nil)
	appendN(t, w3, 7, 8)
	w3.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("segments = %+v", segs)
	}
	os.Remove(segs[0].path)
	if _, err := openWAL(dir, walOptions{ReplayFrom: 0}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWALDamageBeforeTailIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0, nil)
	appendN(t, w, 1, 3)
	if err := w.Rotate(0); err != nil { // rotate without compaction: two segments
		t.Fatal(err)
	}
	appendN(t, w, 4, 5)
	w.Close()
	segs, _ := listSegments(dir)
	if len(segs) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	// Corrupt the FIRST segment's tail: damage not at the log tail.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(dir, walOptions{ReplayFrom: 0}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0, nil)
	const goroutines, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := w.Append("op", nil)
				if err == nil {
					err = w.Sync(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := w.LastSeq(); got != goroutines*each {
		t.Fatalf("LastSeq = %d, want %d", got, goroutines*each)
	}
	w.Close()
	n := 0
	w2 := openTestWAL(t, dir, 0, func(Record) error { n++; return nil })
	defer w2.Close()
	if n != goroutines*each {
		t.Fatalf("recovered %d records", n)
	}
}

// TestWALGroupCommitRecords: each leader flush observes how many records
// it made durable — two appends under one Sync count once, as 2 — and
// recording the sample allocates nothing. (The allocation check times the
// recording alone: a whole commit spans a write syscall, during which
// other goroutines' allocations would be counted too.)
func TestWALGroupCommitRecords(t *testing.T) {
	m := obs.NewWALMetrics(obs.NewRegistry())
	w, err := openWAL(t.TempDir(), walOptions{Metrics: m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Append("op", nil)
	seq, _ := w.Append("op", nil)
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil { // already durable: no leader flush
		t.Fatal(err)
	}
	if n, sum := m.GroupCommitRecords.Count(), m.GroupCommitRecords.Sum(); n != 1 || sum != 2 {
		t.Fatalf("group-commit samples = %d summing %v, want 1 summing 2", n, sum)
	}
	if a := testing.AllocsPerRun(100, func() { m.GroupCommitRecords.Observe(2) }); a != 0 {
		t.Fatalf("recording a group-commit sample allocates %v", a)
	}
}

func TestSnapshotFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshotFile(dir, 3, 0, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshotFile(dir, 7, 0, []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	// Damage the newest snapshot; loading falls back to seq 3.
	path := snapshotPath(dir, 7)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	seq, _, state, err := loadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || string(state) != `{"a":1}` {
		t.Fatalf("fallback snapshot = %d %q", seq, state)
	}
	// Leftover .tmp files are ignored.
	os.WriteFile(filepath.Join(dir, "snap-00000000000000000009.json.tmp"), []byte("junk"), 0o644)
	if seq, _, _, _ := loadLatestSnapshot(dir); seq != 3 {
		t.Fatalf("tmp file considered: seq = %d", seq)
	}
}

// TestSnapshotKeepsTheCallersBytes: a snapshot stores the state bytes it
// was given, so its checksum covers what is on disk. State that
// encoding/json would rewrite — whitespace, HTML-escaped characters — must
// load back byte for byte after WriteSnapshot has compacted the log behind
// it, or the compaction has discarded the only copy of the state.
func TestSnapshotKeepsTheCallersBytes(t *testing.T) {
	for _, state := range []string{`{"a": 1}`, `{"a":"<x>"}`, "\n{\"a\":[1, 2]}\n"} {
		dir := t.TempDir()
		st, _, err := Open(dir, Options{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := st.Append("op", i); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.WriteSnapshot(2, 0, []byte(state)); err != nil {
			t.Fatal(err)
		}
		st.Close()
		var got []byte
		st, stats, err := Open(dir, Options{}, func(s []byte) error { got = s; return nil }, nil)
		if err != nil {
			t.Fatalf("%q: reopen: %v", state, err)
		}
		st.Close()
		if stats.SnapshotSeq != 2 || string(got) != state {
			t.Fatalf("%q: reopened at snapshot %d with state %q", state, stats.SnapshotSeq, got)
		}
	}
}
