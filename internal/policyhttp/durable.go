package policyhttp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// SetDurable attaches a durable store, enabling POST /v1/state/snapshot
// (501 Not Implemented otherwise) and serving GET /v1/state/archive from
// the log. Call it before serving requests.
func (s *Server) SetDurable(ps *durable.PolicyStore) { s.durable = ps }

// errNotDurable is the 501 body for servers running purely in memory.
var errNotDurable = errors.New("service is running without a durable store")

// handleSnapshot forces a snapshot of Policy Memory and compacts the WAL
// behind it, returning the snapshot's log position, size and duration.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	if s.durable == nil {
		s.writeError(w, resf, http.StatusNotImplemented, errNotDurable)
		return
	}
	info, err := s.durable.SnapshotNow()
	if err != nil {
		s.writeError(w, resf, http.StatusInternalServerError, err)
		return
	}
	s.writeResponse(w, resf, http.StatusOK, &info)
}

// handleArchive serves the latest snapshot plus the WAL tail after it, or —
// with ?after=N from a requester that already holds the log up to N — only
// the records after N, flagged Delta, whenever the log still holds them
// all. A server without a durable store has no log to follow: every pull
// gets a full archive of its live dump at position 0, which is what a
// durable donor answers a requester behind its compaction. The archive
// embeds raw JSON state and log records, so unlike the rest of the
// interface it is JSON-only.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	var after uint64
	v := r.URL.Query().Get("after")
	if v != "" {
		var err error
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			s.writeError(w, formatJSON, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
			return
		}
	}
	var arch *durable.Archive
	var err error
	switch {
	case s.durable == nil:
		// The live dump is encoded through the pooled buffer, which the
		// parts below still reference until they are written.
		b := getBuffer()
		defer b.release()
		dump := s.svc.ExportState()
		arch = &durable.Archive{Epoch: dump.Epoch}
		if err = b.enc.Encode(dump); err == nil {
			arch.Snapshot = bytes.TrimSuffix(b.Bytes(), []byte("\n"))
		}
	case v != "":
		arch, err = s.durable.ArchiveAfter(after)
	default:
		arch, err = s.durable.Archive()
	}
	if err != nil {
		s.writeError(w, formatJSON, http.StatusInternalServerError, err)
		return
	}
	// The snapshot goes out as stored, not re-encoded (see Archive.JSON),
	// and its length is announced so the puller reads it into one buffer.
	parts, err := arch.JSON()
	if err != nil {
		s.writeError(w, formatJSON, http.StatusInternalServerError, err)
		return
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header()["Content-Type"] = contentTypes[formatJSON]
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	if _, err := parts.WriteTo(w); err != nil && s.log != nil {
		s.log.Printf("encode response: %v", err)
	}
}

// emptyDump is the snapshot of a donor that has not snapshotted yet: its
// whole log is the tail, replayed onto empty state.
var emptyDump = []byte("{}")

// applyArchive is the one archive replay path, the StandbySyncer's: bring
// svc along donor's log through policy.ApplyReplica. A full archive
// restores its snapshot wholesale before the tail; a delta continues svc's
// replica cursor. dump is the snapshot already decoded, or nil.
func applyArchive(svc *policy.Service, donor string, arch *durable.Archive, dump *policy.StateDump) error {
	recs := make([]policy.ReplicaRecord, 0, len(arch.Tail)+1)
	if !arch.Delta {
		snap := policy.ReplicaRecord{Seq: arch.SnapshotSeq, Op: policy.OpImportState, Data: arch.Snapshot}
		if dump != nil {
			snap.Request = dump
		} else if snap.Data == nil {
			snap.Data = emptyDump
		}
		recs = append(recs, snap)
	}
	for _, rec := range arch.Tail {
		recs = append(recs, policy.ReplicaRecord{Seq: rec.Seq, Op: rec.Op, Data: rec.Data})
	}
	return svc.ApplyReplica(donor, recs)
}

// maxPresized bounds the body readBody allocates whole on the word of
// Content-Length; a longer body is read as it arrives.
const maxPresized = 256 << 20

// readBody reads a response body into one buffer of the length the
// response announces, or as it arrives when it announces none.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresized {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	_, err := io.ReadFull(resp.Body, data)
	return data, err
}

// SnapshotNow asks the remote service to snapshot its Policy Memory now.
func (c *Client) SnapshotNow() (*durable.SnapshotInfo, error) {
	return fetch(c, http.MethodPost, "/v1/state/snapshot", nil, self[durable.SnapshotInfo])
}

// Archive fetches the remote snapshot+tail bundle with one un-retried GET.
// The archive embeds raw JSON state and log records, so the call is JSON
// whatever the client's wire preference.
func (c *Client) Archive() (*durable.Archive, error) {
	arch, _, err := c.archive(0, false)
	return arch, err
}

// archive GETs the archive (after the given seq when delta is set) and
// decodes it (see decodeArchive).
func (c *Client) archive(after uint64, delta bool) (*durable.Archive, *policy.StateDump, error) {
	path := "/v1/state/archive"
	if delta {
		path += "?after=" + strconv.FormatUint(after, 10)
	}
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("policyhttp: build request: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("policyhttp: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, nil, c.decodeError(resp)
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("policyhttp: read response: %w", err)
	}
	arch, dump, err := decodeArchive(data)
	if err != nil {
		return nil, nil, fmt.Errorf("policyhttp: decode response: %w", err)
	}
	return arch, dump, nil
}

// decodeArchive decodes an archive document and the dump its snapshot
// holds: the envelope's pass only validates the snapshot and leaves it a
// sub-slice of data, and the dump is decoded from that slice. Snapshot
// keeps those bytes, so a durable receiver installs them as received.
func decodeArchive(data []byte) (*durable.Archive, *policy.StateDump, error) {
	arch, err := durable.DecodeArchive(data)
	if err != nil || arch.Snapshot == nil {
		return arch, nil, err
	}
	// JSON that is no dump is the donor's fault, not a failed pull:
	// applying the bytes rejects it as ErrInvalidRequest.
	dump, _ := policy.DecodeStateDump(arch.Snapshot)
	return arch, dump, nil
}
