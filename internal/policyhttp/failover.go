package policyhttp

import (
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// This file is the HTTP half of the epoch-fenced failover subsystem. The
// policy core owns the epoch itself (a WAL-logged monotonic counter, see
// internal/policy/epoch.go); here it becomes a fence: servers assigned a
// role stamp every policy-plane response with X-Policy-Epoch, clients echo
// the highest epoch they have seen on every mutation, and a server that is
// not the primary — or that learns from a request header that a newer
// epoch exists — answers 412 Precondition Failed instead of applying
// anything. 412 (not 409) because the request itself is well-formed and
// would be accepted by the current primary: only a precondition about
// *which server* may apply it failed, and the client should re-route, not
// re-form, the request.
//
// The fence wraps OUTSIDE the idempotency cache and refuses before the
// handler runs, so a 412 applies nothing and records nothing. That is what
// makes a re-route exactly-once whichever key the re-routed attempt
// carries (see ReplicatedClient.Do): the only server that has applied —
// and cached — the mutation is the one that acknowledges it.

// EpochHeader carries the fencing epoch: on requests, the highest epoch
// the client has observed; on responses from role-assigned servers, the
// epoch the answering server believes is current.
const EpochHeader = "X-Policy-Epoch"

// Role is a server's position in a primary/standby pair.
type Role string

const (
	// RoleNone disables fencing entirely: a standalone server. It is not
	// a replication configuration — nothing ships its log anywhere.
	RoleNone Role = ""
	// RolePrimary accepts mutations and stamps responses with its epoch.
	RolePrimary Role = "primary"
	// RoleStandby refuses every client mutation with 412 while its
	// StandbySyncer keeps its Policy Memory warm.
	RoleStandby Role = "standby"
)

func (r Role) String() string {
	if r == RoleNone {
		return "none"
	}
	return string(r)
}

// SetFailover assigns the server's failover role and its peer (the other
// half of the pair; may be nil). A peer comes with the server's own
// StandbySyncer pulling from it (Syncer), active while this server is a
// standby. Promotion flips a standby to primary via POST /v1/promote; a
// primary that observes a newer epoch in a request header deposes itself
// back to standby.
func (s *Server) SetFailover(role Role, peer *Client) {
	var syncer *StandbySyncer
	if peer != nil {
		// Cannot fail: it only rejects a nil service or client.
		syncer, _ = NewStandbySyncer(s.svc, peer, 0)
		syncer.Active = func() bool { return s.Role() == RoleStandby }
	}
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.role = role
	s.syncer = syncer
}

// Syncer returns the server's StandbySyncer — nil without a peer. Run it
// to keep a standby warm; its Active gate already follows the role. The
// promotion's final catch-up is a sync of this same syncer, so it resumes
// from wherever the last one stopped.
func (s *Server) Syncer() *StandbySyncer {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	return s.syncer
}

// Role returns the server's current failover role.
func (s *Server) Role() Role {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	return s.role
}

// fenced wraps a mutating policy-plane handler with the epoch fence.
// Role-less servers pass through untouched; everything else is stamped
// with the server's epoch and refused with 412 unless this server is the
// primary. No request header opens the fence: a standby feeds itself by
// pulling the primary's archive (StandbySyncer), never through the policy
// endpoints.
func (s *Server) fenced(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.roleMu.Lock()
		role := s.role
		s.roleMu.Unlock()
		if role == RoleNone {
			h(w, r)
			return
		}
		own := s.svc.Epoch()
		reqEpoch, _ := strconv.ParseUint(r.Header.Get(EpochHeader), 10, 64)
		if role == RolePrimary && reqEpoch > own {
			// The client has been acked by a newer epoch, so a promotion
			// happened past this server (a partition healed, a demote was
			// lost). Self-depose before acking a single stale write.
			s.roleMu.Lock()
			if s.role == RolePrimary {
				s.role = RoleStandby
			}
			role = s.role
			s.roleMu.Unlock()
		}
		w.Header().Set(EpochHeader, strconv.FormatUint(own, 10))
		if role != RolePrimary {
			resf := responseFormat(r, formatJSON)
			s.writeError(w, resf, http.StatusPreconditionFailed,
				fmt.Errorf("not primary (role %s, epoch %d)", role, own))
			return
		}
		h(w, r)
	}
}

// PromoteResult is the wire response of POST /v1/promote.
type PromoteResult struct {
	XMLName xml.Name `json:"-" xml:"promote"`
	Epoch   uint64   `json:"epoch" xml:"epoch"`
	Role    string   `json:"role" xml:"role"`
	// CaughtUp reports whether a final catch-up pull from the old primary
	// succeeded before the epoch bump (false when it was unreachable).
	CaughtUp bool `json:"caughtUp" xml:"caughtUp"`
}

// EpochDoc is the wire form of GET/POST /v1/epoch.
type EpochDoc struct {
	XMLName xml.Name `json:"-" xml:"epoch"`
	Epoch   uint64   `json:"epoch" xml:"epoch"`
	Role    string   `json:"role,omitempty" xml:"role,omitempty"`
}

// handlePromote turns this server into the primary:
//
//  1. Demote the peer first, so the old primary stops acknowledging
//     writes before the catch-up pull — otherwise a write acked between
//     pull and fence would be silently lost. An unreachable peer (the
//     very failure promotion exists for) is skipped; a reachable peer
//     that refuses demotion aborts the promotion.
//  2. Catch up with one sync of the server's own StandbySyncer: only the
//     peer's records past this server's replica cursor, not its state. A
//     pull that fails leaves the standby serving from its last sync; a
//     catch-up this server cannot apply (its own log failed) aborts.
//  3. Bump the epoch through this server's own WAL, then serve as
//     primary. Every client that contacts the old primary with the new
//     epoch deposes it; every fence response routes clients here.
//
// The syncer is held from catch-up to role flip, so no sync of its own Run
// loop can land in between. Promoting a server that is already primary is
// an idempotent no-op.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	s.roleMu.Lock()
	role, syncer := s.role, s.syncer
	s.roleMu.Unlock()
	if role == RolePrimary {
		s.writeResponse(w, resf, http.StatusOK, &PromoteResult{
			Epoch: s.svc.Epoch(), Role: string(RolePrimary),
		})
		return
	}
	caughtUp := false
	if syncer != nil {
		syncer.mu.Lock()
		defer syncer.mu.Unlock()
		if _, err := syncer.primary.Demote(); err != nil {
			if !isUnreachable(err) {
				s.writeError(w, resf, http.StatusBadGateway,
					fmt.Errorf("demote peer before promotion: %w", err))
				return
			}
		} else if err := syncer.syncLocked(); err == nil {
			// The peer's log carries its epoch bumps, so the bump below
			// always lands above the old primary's epoch.
			caughtUp = true
		} else if !errors.Is(err, errPull) {
			s.writeError(w, resf, statusFor(err), err)
			return
		}
	}
	epoch, err := s.svc.BumpEpoch(s.svc.Epoch() + 1)
	if err != nil {
		s.writeError(w, resf, statusFor(err), err)
		return
	}
	s.roleMu.Lock()
	s.role = RolePrimary
	s.roleMu.Unlock()
	s.writeResponse(w, resf, http.StatusOK, &PromoteResult{
		Epoch: epoch, Role: string(RolePrimary), CaughtUp: caughtUp,
	})
}

// handleDemote steps this server down to standby (idempotent). The epoch
// is left alone: demotion fences this server, it does not elect anyone.
func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	s.roleMu.Lock()
	s.role = RoleStandby
	s.roleMu.Unlock()
	s.writeResponse(w, resf, http.StatusOK, &EpochDoc{
		Epoch: s.svc.Epoch(), Role: string(RoleStandby),
	})
}

// handleEpochGet reports the server's epoch and role.
func (s *Server) handleEpochGet(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	s.writeResponse(w, resf, http.StatusOK, &EpochDoc{
		Epoch: s.svc.Epoch(), Role: s.Role().String(),
	})
}

// isUnreachable reports a transport-level failure: the peer never saw the
// request. Server-side errors (the peer answered, unhappily) are not
// unreachability — promotion must not steamroll a live, objecting peer.
func isUnreachable(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// IsFenced reports whether err is a 412 fence response: the server is
// healthy but is not the primary. The caller should re-route to the
// current primary (ReplicatedClient does this transparently) rather than
// retry here.
func IsFenced(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.StatusCode == http.StatusPreconditionFailed
}

// Epoch returns the highest fencing epoch this client has observed.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// RaiseEpoch raises the client's observed epoch (monotonic; lower values
// are ignored). Every response from a role-assigned server raises it
// automatically; ReplicatedClient uses this to spread the newest epoch
// across its per-replica clients.
func (c *Client) RaiseEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Promote asks the server to become primary (see handlePromote).
func (c *Client) Promote() (*PromoteResult, error) {
	return fetch(c, http.MethodPost, "/v1/promote", nil, self[PromoteResult])
}

// Demote asks the server to step down to standby (idempotent).
func (c *Client) Demote() (*EpochDoc, error) {
	return fetch(c, http.MethodPost, "/v1/demote", nil, self[EpochDoc])
}

// EpochInfo reports the server's current epoch and role.
func (c *Client) EpochInfo() (*EpochDoc, error) {
	return fetch(c, http.MethodGet, "/v1/epoch", nil, self[EpochDoc])
}
