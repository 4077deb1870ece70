package policyhttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// DurableStore is the slice of *durable.PolicyStore the HTTP layer needs:
// on-demand snapshots and the snapshot+tail archive a standby pulls
// instead of a full live dump.
type DurableStore interface {
	SnapshotNow() (durable.SnapshotInfo, error)
	Archive() (*durable.Archive, error)
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

// handleArchive serves the latest snapshot plus the WAL tail after it.
// The archive embeds raw JSON state and log records, so unlike the rest
// of the interface it is JSON-only.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	if s.durable == nil {
		s.writeError(w, formatJSON, http.StatusNotImplemented, errNotDurable)
		return
	}
	arch, err := s.durable.Archive()
	if err != nil {
		s.writeError(w, formatJSON, http.StatusInternalServerError, err)
		return
	}
	s.writeResponse(w, formatJSON, http.StatusOK, arch)
}

// applyArchive is the one archive replay path, the StandbySyncer's: bring
// svc to the archive's state and return the donor log position reached.
// With resume set and the archive's snapshot no newer than cursor, only
// tail records past cursor are applied (O(delta)); otherwise the snapshot
// is restored wholesale first. Every record goes
// through ApplyLogged, which re-logs it into svc's own WAL — the
// replica's durability is its own. On error the returned position is the
// last record that WAS applied: the caller must not advance past it.
func applyArchive(svc *policy.Service, arch *durable.Archive, resume bool, cursor uint64) (uint64, error) {
	if !resume || arch.SnapshotSeq > cursor {
		dump := &policy.StateDump{}
		if arch.Snapshot != nil {
			if err := json.Unmarshal(arch.Snapshot, dump); err != nil {
				return cursor, fmt.Errorf("%w: decode archive snapshot: %v", policy.ErrInvalidRequest, err)
			}
		}
		if err := svc.ImportState(dump); err != nil {
			return cursor, fmt.Errorf("policyhttp: restore archive snapshot: %w", err)
		}
		cursor = arch.SnapshotSeq
	}
	for _, rec := range arch.Tail {
		if rec.Seq <= cursor {
			continue
		}
		if err := svc.ApplyLogged(rec.Op, rec.Data); err != nil {
			return cursor, fmt.Errorf("policyhttp: apply record %d (%s): %w", rec.Seq, rec.Op, err)
		}
		cursor = rec.Seq
	}
	return cursor, nil
}

// SnapshotNow asks the remote service to snapshot its Policy Memory now.
func (c *Client) SnapshotNow() (*durable.SnapshotInfo, error) {
	var info durable.SnapshotInfo
	if err := c.do(http.MethodPost, "/v1/state/snapshot", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Archive fetches the remote snapshot+tail bundle with one un-retried GET.
// The archive embeds raw JSON state and log records, so the call is JSON
// whatever the client's wire preference.
func (c *Client) Archive() (*durable.Archive, error) {
	const path = "/v1/state/archive"
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+path, nil)
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
