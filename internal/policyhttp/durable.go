package policyhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// DurableStore is the slice of *durable.PolicyStore the HTTP layer needs:
// on-demand snapshots and the snapshot+tail archive a replica resync
// ships instead of a full live dump.
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

// handleApply replays a snapshot+tail archive (the body GET
// /v1/state/archive serves) into this server's Policy Memory — the
// receiving half of a replica resync. It is replication-plane traffic:
// unfenced, so a standby can be fed, and unadmitted, so recovery is never
// shed. A malformed archive is the sender's fault (400); a failure of
// this server's own log is not (500), and the replica must stay down.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	var arch durable.Archive
	if err := decode(r, formatJSON, &arch); err != nil {
		s.writeError(w, formatJSON, http.StatusBadRequest, fmt.Errorf("decode archive: %w", err))
		return
	}
	if _, err := applyArchive(s.svc, &arch, false, 0); err != nil {
		s.writeError(w, formatJSON, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// applyArchive is the one archive replay path, shared by handleApply and
// the StandbySyncer: bring svc to the archive's state and return the donor
// log position reached. With resume set and the archive's snapshot no
// newer than cursor, only tail records past cursor are applied (O(delta));
// otherwise the snapshot is restored wholesale first. Every record goes
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

// Archive fetches the remote snapshot+tail bundle.
func (c *Client) Archive() (*durable.Archive, error) {
	var arch durable.Archive
	if err := c.doJSON(http.MethodGet, "/v1/state/archive", nil, &arch); err != nil {
		return nil, err
	}
	return &arch, nil
}

// replayArchive reconstructs a replica's Policy Memory from an archive by
// handing it to the replica's POST /v1/state/apply.
func replayArchive(target *Client, arch *durable.Archive) error {
	return target.doJSON(http.MethodPost, "/v1/state/apply", arch, nil)
}

// doJSON performs one un-retried call on the archive endpoints, which
// embed raw JSON state and log records and so bypass the client's XML
// preference.
func (c *Client) doJSON(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("policyhttp: encode request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("policyhttp: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("policyhttp: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return c.decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("policyhttp: decode response: %w", err)
	}
	return nil
}
