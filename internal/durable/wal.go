package durable

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"policyflow/internal/obs"
)

// walOptions configures a segmented WAL.
type walOptions struct {
	// Fsync forces an fsync(2) before Sync reports a record durable.
	// Without it, Sync only flushes to the OS (surviving a process crash
	// but not a machine crash).
	Fsync bool
	// ReplayFrom skips records with Seq <= ReplayFrom during open replay
	// (they are covered by a snapshot).
	ReplayFrom uint64
	// Metrics, when non-nil, receives append/fsync/byte counters.
	Metrics *obs.WALMetrics
	// Tracer, when non-nil, receives a "wal.fsync" span for every
	// group-commit fsync the leader performs, annotated with the highest
	// sequence the batch made durable.
	Tracer obs.Tracer
}

// walSegment is one on-disk log file; First is the sequence number of the
// first record it may contain (the file name encodes it).
type walSegment struct {
	path  string
	first uint64
}

// wal is an append-only, segmented write-ahead log. Appends buffer under
// mu; Sync makes records durable with group commit — concurrent callers
// elect one leader that flushes and fsyncs once for the whole batch, so N
// concurrent commits cost one fsync, not N.
type wal struct {
	dir  string
	opts walOptions

	mu      sync.Mutex // append path: f, bw, nextSeq, segs, closed
	f       *os.File
	bw      *bufio.Writer
	nextSeq uint64
	segs    []walSegment
	closed  bool

	syncMu sync.Mutex
	syncC  *sync.Cond
	token  bool   // a leader (fsync or rotation) holds the commit token
	synced uint64 // highest seq Sync has made durable
	err    error  // sticky fatal write/sync error
}

// errClosed reports use of a closed WAL.
var errClosed = errors.New("durable: wal is closed")

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.log", first))
}

// listSegments returns the dir's WAL segments in ascending first-seq order.
func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		name := e.Name()
		var first uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &first); err != nil || e.IsDir() {
			continue
		}
		segs = append(segs, walSegment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// openWAL opens (creating if empty) the WAL in dir and replays every
// record with Seq > opts.ReplayFrom through replay, in order. A torn tail
// on the final segment is truncated silently; damage anywhere else, or a
// gap in the sequence numbering, is ErrCorrupt.
func openWAL(dir string, opts walOptions, replay func(Record) error) (*wal, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, opts: opts, segs: segs}
	w.syncC = sync.NewCond(&w.syncMu)

	prev := uint64(0) // last record seq seen across segments
	var lastValid int64
	for i, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, err
		}
		valid, _, scanErr := scanRecords(bufio.NewReader(f), func(rec Record) error {
			// A gap is damage unless the snapshot covers it: an installed
			// snapshot takes a seq no record holds (see rotate).
			switch {
			case prev == 0 && rec.Seq > opts.ReplayFrom+1:
				return fmt.Errorf("%w: %s starts at seq %d but snapshot covers only up to %d",
					ErrCorrupt, seg.path, rec.Seq, opts.ReplayFrom)
			case prev != 0 && (rec.Seq <= prev || rec.Seq > max(prev, opts.ReplayFrom)+1):
				return fmt.Errorf("%w: %s: seq %d follows %d", ErrCorrupt, seg.path, rec.Seq, prev)
			}
			prev = rec.Seq
			if rec.Seq > opts.ReplayFrom && replay != nil {
				if err := replay(rec); err != nil {
					return err
				}
			}
			return nil
		})
		size, _ := f.Seek(0, io.SeekEnd)
		f.Close()
		if scanErr != nil {
			return nil, scanErr
		}
		if i < len(segs)-1 && valid < size {
			return nil, fmt.Errorf("%w: %s is damaged before the log tail", ErrCorrupt, seg.path)
		}
		if valid < size {
			// The last segment may end in a torn write, but a valid record
			// past the damage means the damage is rot inside the log:
			// truncating there would silently drop acknowledged records.
			data, err := os.ReadFile(seg.path)
			if err != nil {
				return nil, err
			}
			if recordFollows(data[valid:], prev) {
				return nil, fmt.Errorf("%w: %s is damaged at offset %d, before valid records", ErrCorrupt, seg.path, valid)
			}
		}
		lastValid = valid
	}
	w.nextSeq = opts.ReplayFrom
	if prev > w.nextSeq {
		w.nextSeq = prev
	}

	if len(segs) == 0 {
		if err := w.createSegmentLocked(w.nextSeq + 1); err != nil {
			return nil, err
		}
	} else {
		// Reopen the active segment for appending, truncating any torn
		// tail so new records never interleave with garbage.
		active := segs[len(segs)-1]
		f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(lastValid); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(lastValid, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		w.f = f
		w.bw = bufio.NewWriter(f)
	}
	w.synced = w.nextSeq
	return w, nil
}

// createSegmentLocked makes a fresh segment whose first record will be
// seq first, pointing the append path at it. Callers hold w.mu (or own the
// WAL exclusively during open).
func (w *wal) createSegmentLocked(first uint64) error {
	f, err := os.OpenFile(segmentPath(w.dir, first), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriter(f)
	} else {
		w.bw.Reset(f)
	}
	w.segs = append(w.segs, walSegment{path: f.Name(), first: first})
	return syncDir(w.dir)
}

// Append assigns the next sequence number and buffers the framed record.
// The record is not durable until Sync(seq) returns.
func (w *wal) Append(op string, data []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errClosed
	}
	seq := w.nextSeq + 1
	n, err := writeRecord(w.bw, &Record{Seq: seq, Op: op, Data: data})
	if err != nil {
		w.fail(err)
		return 0, err
	}
	w.nextSeq = seq
	if m := w.opts.Metrics; m != nil {
		m.Appends.Inc()
		m.Bytes.Add(float64(n))
	}
	return seq, nil
}

// Sync blocks until the record at seq is durable. Concurrent callers are
// group-committed: one leader flushes and fsyncs the whole buffered batch,
// the rest wait on the result.
func (w *wal) Sync(seq uint64) error {
	if seq == 0 {
		return nil
	}
	for {
		lead, err := w.acquireToken(seq)
		if err != nil {
			return err
		}
		if !lead {
			// Another leader made seq durable while we waited.
			return nil
		}
		w.mu.Lock()
		end := w.nextSeq
		err = w.bw.Flush()
		f := w.f
		w.mu.Unlock()
		if err == nil && w.opts.Fsync {
			start := time.Now()
			err = f.Sync()
			if m := w.opts.Metrics; m != nil {
				m.Fsyncs.Inc()
			}
			if tr := w.opts.Tracer; tr != nil {
				// The leader's fsync covers a whole batch of concurrent
				// commits, so the span is a root of its own trace; request
				// traces join it through the WALSeq annotation.
				sc := obs.NewSpanContext()
				tr.Emit(obs.Event{Type: obs.EventSpan, Name: "wal.fsync",
					TraceID: sc.TraceID, SpanID: sc.SpanID, WALSeq: end,
					DurationNanos: time.Since(start).Nanoseconds()})
			}
		}
		n := w.releaseToken(end, err)
		if m := w.opts.Metrics; m != nil && n > 0 {
			m.GroupCommitRecords.Observe(float64(n))
		}
		if err != nil {
			return err
		}
		if end >= seq {
			return nil
		}
	}
}

// acquireToken waits until the caller holds the commit token (lead=true)
// or, for seq != 0, until another leader has already made seq durable
// (lead=false, no token held). A sticky error aborts immediately.
func (w *wal) acquireToken(seq uint64) (lead bool, err error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for {
		if w.err != nil {
			return false, w.err
		}
		if seq != 0 && w.synced >= seq {
			return false, nil
		}
		if !w.token {
			w.token = true
			return true, nil
		}
		w.syncC.Wait()
	}
}

// releaseToken publishes a leader's result: on success records up to end
// are durable; on failure the error becomes sticky. It returns how many
// records the leader made durable.
func (w *wal) releaseToken(end uint64, err error) (records uint64) {
	w.syncMu.Lock()
	if err != nil {
		w.err = err
	} else if end > w.synced {
		records = end - w.synced
		w.synced = end
	}
	w.token = false
	w.syncC.Broadcast()
	w.syncMu.Unlock()
	return records
}

// fail records a sticky fatal error from the append path. Callers hold w.mu.
func (w *wal) fail(err error) {
	w.syncMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.syncC.Broadcast()
	w.syncMu.Unlock()
}

// acquireToken(0) variants below serialize rotation and flushing against
// in-flight group commits.

// Flush pushes buffered records to the OS without waiting for fsync —
// enough for readers of the segment files to observe them.
func (w *wal) Flush() error {
	if _, err := w.acquireToken(0); err != nil {
		return err
	}
	w.mu.Lock()
	err := w.bw.Flush()
	w.mu.Unlock()
	w.releaseToken(0, err)
	return err
}

// Rotate seals the active segment and starts a new one, deleting segments
// whose records are all covered by a snapshot at seq upTo. The sealed
// segment is flushed (and fsynced when configured) first.
func (w *wal) Rotate(upTo uint64) error {
	_, err := w.rotate(upTo, nil)
	return err
}

// rotate is Rotate. With install set, the snapshot takes the next sequence
// number instead of a record: install writes it at the claimed seq once
// the active segment is sealed, the log restarts behind it with every
// earlier segment deleted, and rotate returns the seq, durable. If install
// fails, nothing is claimed.
func (w *wal) rotate(upTo uint64, install func(seq uint64) error) (uint64, error) {
	if _, err := w.acquireToken(0); err != nil {
		return 0, err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.releaseToken(0, nil)
		return 0, errClosed
	}
	err := w.bw.Flush()
	if err == nil && w.opts.Fsync {
		err = w.f.Sync()
	}
	if err != nil {
		w.mu.Unlock()
		w.releaseToken(0, err)
		return 0, err
	}
	if install != nil {
		if err := install(w.nextSeq + 1); err != nil {
			w.mu.Unlock()
			w.releaseToken(0, nil)
			return 0, err
		}
		w.nextSeq++
		upTo = w.nextSeq
	}
	end := w.nextSeq
	old := w.f
	if err := w.createSegmentLocked(w.nextSeq + 1); err != nil {
		w.mu.Unlock()
		w.releaseToken(0, err)
		return 0, err
	}
	old.Close()
	// A segment is removable when its successor starts at or before the
	// snapshot horizon — then every record it holds is <= upTo.
	var keep []walSegment
	for i, seg := range w.segs {
		if i+1 < len(w.segs) && w.segs[i+1].first <= upTo+1 {
			os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	w.segs = keep
	dirErr := syncDir(w.dir)
	w.mu.Unlock()
	w.releaseToken(end, dirErr)
	return end, dirErr
}

// ReadAfter returns every durable record with Seq > after, in order. It
// flushes buffered appends first so the file scan observes them.
func (w *wal) ReadAfter(after uint64) ([]Record, error) {
	if err := w.Flush(); err != nil {
		return nil, err
	}
	w.mu.Lock()
	segs := append([]walSegment(nil), w.segs...)
	w.mu.Unlock()
	// A segment whose successor starts at or before after+1 holds nothing
	// past after: skip it unopened.
	for len(segs) > 1 && segs[1].first <= after+1 {
		segs = segs[1:]
	}
	var out []Record
	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // compacted concurrently
			}
			return nil, err
		}
		_, _, scanErr := scanRecords(bufio.NewReader(f), func(rec Record) error {
			if rec.Seq > after {
				out = append(out, rec)
			}
			return nil
		})
		f.Close()
		if scanErr != nil {
			return nil, scanErr
		}
	}
	for i := 1; i < len(out); i++ {
		if out[i].Seq != out[i-1].Seq+1 {
			return nil, fmt.Errorf("%w: gap between seq %d and %d", ErrCorrupt, out[i-1].Seq, out[i].Seq)
		}
	}
	return out, nil
}

// LastSeq returns the sequence number of the last appended record.
func (w *wal) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// Close flushes and (when configured) fsyncs outstanding records, then
// closes the active segment. Further appends fail.
func (w *wal) Close() error {
	if _, err := w.acquireToken(0); err != nil {
		// A sticky error does not block closing the file handle.
		w.mu.Lock()
		defer w.mu.Unlock()
		if !w.closed {
			w.closed = true
			w.f.Close()
		}
		return err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.releaseToken(0, nil)
		return nil
	}
	end := w.nextSeq
	err := w.bw.Flush()
	if err == nil && w.opts.Fsync {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.closed = true
	w.mu.Unlock()
	w.releaseToken(end, err)
	return err
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
