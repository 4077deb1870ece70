package policy

import (
	"errors"
	"fmt"
)

// A standby mirrors a donor by replaying the donor's mutation log. The
// replica cursor records how far: the donor and the position in its log
// that Policy Memory equals, so the next pull asks only for the records
// after it — O(delta), not O(state). The cursor belongs to Policy Memory,
// not to whoever pulled: any syncer on this service (a standby's periodic
// loop, a promotion's final catch-up) resumes from it. Every mutation that
// did not come from the donor's log drops it, because the state then equals
// no position in that log.
type replicaCursor struct {
	donor string
	seq   uint64
	ok    bool
}

// ReplicaRecord is one record of a donor's mutation log: its position
// there, the logged op and the op's JSON payload. Request, when set, is
// Data already decoded by the caller, and is applied without decoding
// Data again. The caller hands it over: an import_state dump's entries
// become Policy Memory's facts uncopied.
type ReplicaRecord struct {
	Seq     uint64
	Op      string
	Data    []byte
	Request any
}

// replicaBatch bounds how many records one lock hold applies, so a long
// tail does not stall readers; each bounded batch has one covering sync.
const replicaBatch = 128

// errCursorMoved fails a delta that no longer continues Policy Memory's
// cursor: something else mutated the service since the pull was cut.
var errCursorMoved = errors.New("policy: replica cursor moved; a full restore is needed")

// ReplicaCursor returns the position in donor's log that Policy Memory
// mirrors. ok is false unless every mutation since the last full restore
// from donor came from ApplyReplica with donor's records.
func (s *Service) ReplicaCursor(donor string) (seq uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.replica
	return c.seq, c.ok && c.donor == donor
}

// DropReplicaCursor forgets the cursor, so the next pull restores in full.
func (s *Service) DropReplicaCursor() {
	s.mu.Lock()
	s.replica = replicaCursor{}
	s.mu.Unlock()
}

// ApplyReplica advances Policy Memory along donor's log. recs is either a
// full restore — an import_state record carrying the donor's snapshot at
// the snapshot's position, then the records after it — or a delta that
// continues the cursor: records at or below it are skipped and the rest
// must follow it without a gap. Records are decoded before any is applied,
// so a damaged archive (ErrInvalidRequest) changes nothing. They run
// through the one mutation path, executeBatch, in bounded batches with one
// covering sync each, and are re-logged into this service's own log: a
// replica's durability is its own. The snapshot's dump keeps the donor's
// bytes, so a log that persists it (durable.PolicyStore installs it as its
// own snapshot) writes them as received. Deterministic rejections are
// discarded, as in ApplyLogged. On success the cursor is donor's last
// record; on any failure it is dropped, so the next pull is a full
// restore.
func (s *Service) ApplyReplica(donor string, recs []ReplicaRecord) error {
	run := replicaRun{donor: donor, full: len(recs) > 0 && recs[0].Op == OpImportState}
	var ok bool
	if run.from, ok = s.ReplicaCursor(donor); !ok && !run.full {
		return errCursorMoved
	}
	batch := make([]BatchMutation, 0, len(recs))
	seqs := make([]uint64, 0, len(recs))
	next := run.from
	for i, r := range recs {
		switch {
		case run.full && i == 0:
			run.from = r.Seq
		case r.Seq <= next:
			continue
		case r.Seq != next+1:
			return fmt.Errorf("%w: replica: donor record %d does not follow %d", ErrInvalidRequest, r.Seq, next)
		}
		next = r.Seq
		spec := opByName[r.Op]
		if spec == nil {
			return fmt.Errorf("%w: replica: unknown logged op %q at %d", ErrInvalidRequest, r.Op, r.Seq)
		}
		req := r.Request
		if req == nil {
			var err error
			if req, err = spec.decode(r.Data); err != nil {
				return fmt.Errorf("%w: replica: decode %s at %d: %v", ErrInvalidRequest, r.Op, r.Seq, err)
			}
		}
		if d, ok := req.(*StateDump); ok && d != nil {
			d.raw = r.Data // the donor's bytes travel with the dump (see StateDump.JSON)
			d.once = true
		}
		batch = append(batch, BatchMutation{Op: r.Op, Request: req})
		seqs = append(seqs, r.Seq)
	}
	ptrs := make([]*BatchMutation, len(batch))
	for i := range batch {
		ptrs[i] = &batch[i]
	}
	for lo := 0; lo < len(ptrs); lo += replicaBatch {
		hi := min(lo+replicaBatch, len(ptrs))
		run.to = seqs[hi-1]
		s.executeBatch(ptrs[lo:hi], &run)
		if run.err != nil {
			return run.err
		}
		run.full, run.from = false, run.to
	}
	return nil
}

// replicaRun is one bounded batch of ApplyReplica inside executeBatch.
type replicaRun struct {
	donor    string
	full     bool   // the batch opens with a full restore: no cursor to continue
	from, to uint64 // donor positions before and after the batch
	err      error  // why the batch failed, if it did
}

// begin checks, under s.mu, that the batch still continues the cursor.
func (r *replicaRun) begin(s *Service) error {
	c := s.replica
	if r.full || (c.ok && c.donor == r.donor && c.seq == r.from) {
		return nil
	}
	return errCursorMoved
}

// end publishes the batch's outcome under s.mu: the cursor moves to the
// batch's last record, or is dropped when a member could not be logged.
func (r *replicaRun) end(s *Service, stop error) {
	if stop != nil {
		r.err = stop
		s.replica = replicaCursor{}
		return
	}
	s.replica = replicaCursor{donor: r.donor, seq: r.to, ok: true}
}

// fail drops the cursor after the batch's covering sync failed: its
// records are applied but not durable here.
func (r *replicaRun) fail(s *Service, err error) {
	s.mu.Lock()
	s.replica = replicaCursor{}
	s.mu.Unlock()
	r.err = err
}
