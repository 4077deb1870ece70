package policyhttp

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// StandbySyncer keeps a local policy service warm as a standby replica of
// a remote primary. Each sync pulls the primary's snapshot+WAL-tail
// archive and tracks how far into the donor's log it has applied, so a
// steady-state sync ships and applies only the records since the last one
// — O(delta), not O(state). Donors without a durable store (the archive
// endpoint answers 501) fall back to the full Policy Memory dump. If the
// primary dies, the standby holds state at most one sync interval old:
// the state a promotion (POST /v1/promote) serves from when the old
// primary is unreachable for a final catch-up pull. The syncer is also the
// only repair path: a standby that lagged, crash-recovered or was deposed
// from primary reconverges by Reset + SyncOnce, never by a client pushing
// state at it.
type StandbySyncer struct {
	local   *policy.Service
	primary *Client
	// Interval between syncs.
	Interval time.Duration
	// OnSync, when set, is called after each attempt with the error (nil
	// on success).
	OnSync func(error)
	// Ticks, when set, replaces the interval ticker as Run's time source:
	// one sync per value received. Tests use this to drive the loop
	// deterministically without real timers.
	Ticks <-chan time.Time
	// Active, when set, gates each Run tick: while it returns false the
	// loop skips syncing AND resets the delta cursor — a server that was
	// promoted (and later demoted back) got state outside this syncer, so
	// the cursor no longer describes what the local service holds.
	Active func() bool

	syncs  int
	errors int
	// primed/lastSeq form the delta cursor: lastSeq is the donor WAL
	// position already applied locally, valid only while primed. Any sync
	// failure or external state change (see Reset) drops back to a full
	// restore.
	primed  bool
	lastSeq uint64
	// lastOK is the wall time of the last successful sync — of the syncer's
	// construction until there has been one — for the lag gauge.
	lastOK time.Time

	syncsC *obs.Counter // policy_standby_syncs_total
	errsC  *obs.Counter // policy_standby_errors_total
	lagG   *obs.Gauge   // policy_standby_lag_seconds
}

// NewStandbySyncer creates a syncer replicating primary into local.
func NewStandbySyncer(local *policy.Service, primary *Client, interval time.Duration) (*StandbySyncer, error) {
	if local == nil || primary == nil {
		return nil, errors.New("policyhttp: standby syncer needs a local service and a primary client")
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	return &StandbySyncer{local: local, primary: primary, Interval: interval, lastOK: time.Now()}, nil
}

// Instrument registers the syncer's metrics on reg: sync and error
// counters plus a lag gauge (seconds since the last successful sync — since
// construction for a standby that has never synced — refreshed on every
// attempt; 0 after a success).
func (s *StandbySyncer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.syncsC = reg.Counter("policy_standby_syncs_total",
		"Successful standby syncs from the primary.").With()
	s.errsC = reg.Counter("policy_standby_errors_total",
		"Failed standby sync attempts.").With()
	s.lagG = reg.Gauge("policy_standby_lag_seconds",
		"Seconds since the last successful standby sync (since start-up before the first), as of the last attempt.").With()
	s.syncsC.Add(float64(s.syncs))
	s.errsC.Add(float64(s.errors))
}

// Reset invalidates the delta cursor; the next sync performs a full
// restore. Call it whenever the local service's state moved outside this
// syncer — a promotion's catch-up import, a crash-recovery reopen, a
// manual restore — because the cursor is only meaningful while the syncer
// is the sole writer of the local Policy Memory.
func (s *StandbySyncer) Reset() { s.primed = false }

// SyncOnce pulls once from the primary: the delta tail when the cursor is
// valid, a full archive or dump restore otherwise.
func (s *StandbySyncer) SyncOnce() error {
	err := s.syncOnce()
	if err != nil {
		s.errors++
		s.primed = false
		if s.errsC != nil {
			s.errsC.Inc()
		}
		if s.lagG != nil {
			s.lagG.Set(time.Since(s.lastOK).Seconds())
		}
		return err
	}
	s.syncs++
	s.lastOK = time.Now()
	if s.syncsC != nil {
		s.syncsC.Inc()
	}
	if s.lagG != nil {
		s.lagG.Set(0)
	}
	return nil
}

func (s *StandbySyncer) syncOnce() error {
	arch, err := s.primary.Archive()
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) && se.StatusCode == http.StatusNotImplemented {
			// The primary runs without a durable store: no archive, no
			// delta — pull the full live dump every time.
			dump, derr := s.primary.Dump()
			if derr != nil {
				return fmt.Errorf("policyhttp: standby pull: %w", derr)
			}
			if ierr := s.local.ImportState(dump); ierr != nil {
				return fmt.Errorf("policyhttp: standby restore: %w", ierr)
			}
			s.primed = false
			return nil
		}
		return fmt.Errorf("policyhttp: standby pull: %w", err)
	}
	// Delta when the cursor is valid and the donor has not snapshotted past
	// it, full restore otherwise; either way the cursor only advances over
	// records that were applied (and re-logged into the standby's own WAL).
	s.lastSeq, err = applyArchive(s.local, arch, s.primed, s.lastSeq)
	if err != nil {
		return fmt.Errorf("policyhttp: standby apply: %w", err)
	}
	s.primed = true
	return nil
}

// Stats returns (successful syncs, failed attempts).
func (s *StandbySyncer) Stats() (syncs, failures int) { return s.syncs, s.errors }

// Run syncs on the interval until ctx is cancelled. Failures are reported
// through OnSync and do not stop the loop (the primary may come back).
// When Ticks is set it is used instead of a real ticker.
func (s *StandbySyncer) Run(ctx context.Context) {
	ticks := s.Ticks
	if ticks == nil {
		ticker := time.NewTicker(s.Interval)
		defer ticker.Stop()
		ticks = ticker.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticks:
			if s.Active != nil && !s.Active() {
				s.Reset()
				continue
			}
			err := s.SyncOnce()
			if s.OnSync != nil {
				s.OnSync(err)
			}
		}
	}
}
