package policyhttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// DurableStore is the slice of *durable.PolicyStore the HTTP layer needs:
// on-demand snapshots and the archives a standby pulls instead of a full
// live dump — snapshot+tail, or only the tail after its cursor.
type DurableStore interface {
	SnapshotNow() (durable.SnapshotInfo, error)
	Archive() (*durable.Archive, error)
	ArchiveAfter(after uint64) (*durable.Archive, error)
}

// SetDurable attaches a durable store, enabling POST /v1/state/snapshot
// and GET /v1/state/archive (both answer 501 Not Implemented otherwise).
// Call it before serving requests.
func (s *Server) SetDurable(ds DurableStore) { s.durable = ds }

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
// all. The archive embeds raw JSON state and log records, so unlike the rest
// of the interface it is JSON-only.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	if s.durable == nil {
		s.writeError(w, formatJSON, http.StatusNotImplemented, errNotDurable)
		return
	}
	var arch *durable.Archive
	var err error
	if v := r.URL.Query().Get("after"); v != "" {
		after, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil {
			s.writeError(w, formatJSON, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
			return
		}
		arch, err = s.durable.ArchiveAfter(after)
	} else {
		arch, err = s.durable.Archive()
	}
	if err != nil {
		s.writeError(w, formatJSON, http.StatusInternalServerError, err)
		return
	}
	s.writeResponse(w, formatJSON, http.StatusOK, arch)
}

// emptyDump is the snapshot of a donor that has not snapshotted yet: its
// whole log is the tail, replayed onto empty state.
var emptyDump = []byte("{}")

// applyArchive is the one archive replay path, the StandbySyncer's: bring
// svc along donor's log through policy.ApplyReplica. A full archive
// restores its snapshot wholesale before the tail; a delta continues svc's
// replica cursor.
func applyArchive(svc *policy.Service, donor string, arch *durable.Archive) error {
	recs := make([]policy.ReplicaRecord, 0, len(arch.Tail)+1)
	if !arch.Delta {
		snap := []byte(arch.Snapshot)
		if snap == nil {
			snap = emptyDump
		}
		recs = append(recs, policy.ReplicaRecord{Seq: arch.SnapshotSeq, Op: policy.OpImportState, Data: snap})
	}
	for _, rec := range arch.Tail {
		recs = append(recs, policy.ReplicaRecord{Seq: rec.Seq, Op: rec.Op, Data: rec.Data})
	}
	return svc.ApplyReplica(donor, recs)
}

// SnapshotNow asks the remote service to snapshot its Policy Memory now.
func (c *Client) SnapshotNow() (*durable.SnapshotInfo, error) {
	return fetch(c, http.MethodPost, "/v1/state/snapshot", nil, self[durable.SnapshotInfo])
}

// Archive fetches the remote snapshot+tail bundle with one un-retried GET.
// The archive embeds raw JSON state and log records, so the call is JSON
// whatever the client's wire preference.
func (c *Client) Archive() (*durable.Archive, error) { return c.archive("/v1/state/archive") }

// ArchiveAfter fetches only the remote log records after seq after — a
// Delta archive — or the full archive when the remote no longer holds them
// all (see durable.Store.ArchiveAfter).
func (c *Client) ArchiveAfter(after uint64) (*durable.Archive, error) {
	return c.archive("/v1/state/archive?after=" + strconv.FormatUint(after, 10))
}

func (c *Client) archive(path string) (*durable.Archive, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("policyhttp: build request: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("policyhttp: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, c.decodeError(resp)
	}
	var arch durable.Archive
	if err := json.NewDecoder(resp.Body).Decode(&arch); err != nil {
		return nil, fmt.Errorf("policyhttp: decode response: %w", err)
	}
	return &arch, nil
}
