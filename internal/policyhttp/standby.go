package policyhttp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// StandbySyncer keeps a local policy service warm as a standby replica of
// a remote primary. Each sync continues from the local service's replica
// cursor (policy.Service.ReplicaCursor): it asks the primary only for the
// log records after it and applies them in bounded batches under one
// covering sync — O(delta), not O(state). Without a cursor (first sync,
// local state moved, a failed apply) the primary ships snapshot + tail and
// the sync restores in full — from a donor without a durable store,
// always: its archive is its live dump at position 0. If the primary dies,
// the standby holds state at most one sync interval old: the state a
// promotion serves from when the old primary is unreachable for its final
// catch-up. The syncer is also the only repair path: a standby that
// lagged, crash-recovered or was deposed from primary reconverges by
// SyncOnce, never by a client pushing state at it. A Server with a peer
// owns one (Server.Syncer), and its promotion's final catch-up is that
// syncer's sync.
type StandbySyncer struct {
	local   *policy.Service
	primary *Client
	// donor names the primary's log in the local replica cursor.
	donor string
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
	// loop skips syncing (a server serving as primary). Its writes drop the
	// replica cursor, so the first sync after it is demoted is a full one.
	Active func() bool

	// mu serializes syncs: Run's ticks, direct SyncOnce calls and the
	// owning server's promotion.
	mu sync.Mutex

	// countMu guards the sync accounting the metrics read, apart from mu
	// so a scrape never waits for a sync in flight.
	countMu sync.Mutex
	syncs   int
	errors  int
	// lastOK and lastTry are the wall times of the last successful sync
	// and of the last attempt — both of the syncer's construction until
	// there is one — so the lag as of the last attempt is their distance.
	lastOK, lastTry time.Time
}

// errPull marks a sync that failed before anything was applied locally:
// the primary was unreachable or refused the pull.
var errPull = errors.New("standby pull")

// NewStandbySyncer creates a syncer replicating primary into local.
func NewStandbySyncer(local *policy.Service, primary *Client, interval time.Duration) (*StandbySyncer, error) {
	if local == nil || primary == nil {
		return nil, errors.New("policyhttp: standby syncer needs a local service and a primary client")
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	now := time.Now()
	return &StandbySyncer{local: local, primary: primary, donor: primary.base,
		Interval: interval, lastOK: now, lastTry: now}, nil
}

// Instrument registers the syncer's metrics on reg, read from its
// accounting at scrape time: sync and error counters plus a lag gauge
// (seconds since the last successful sync — since construction for a
// standby that has never synced — as of the last attempt; 0 after a
// success).
func (s *StandbySyncer) Instrument(reg *obs.Registry) {
	read := func(f func() float64) func(obs.Emit) {
		return func(emit obs.Emit) {
			s.countMu.Lock()
			defer s.countMu.Unlock()
			emit(f())
		}
	}
	reg.CounterFunc("policy_standby_syncs_total", "Successful standby syncs from the primary.",
		read(func() float64 { return float64(s.syncs) }))
	reg.CounterFunc("policy_standby_errors_total", "Failed standby sync attempts.",
		read(func() float64 { return float64(s.errors) }))
	reg.GaugeFunc("policy_standby_lag_seconds",
		"Seconds since the last successful standby sync (since start-up before the first), as of the last attempt.",
		read(func() float64 { return s.lastTry.Sub(s.lastOK).Seconds() }))
}

// Reset drops the local replica cursor, so the next sync performs a full
// restore. Writes to the local service outside the syncer drop the cursor
// on their own, so Reset is only needed to force a full restore.
func (s *StandbySyncer) Reset() { s.local.DropReplicaCursor() }

// SyncOnce pulls once from the primary: the delta after the local replica
// cursor when there is one, a full archive restore otherwise.
func (s *StandbySyncer) SyncOnce() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

// syncLocked is SyncOnce with s.mu held, plus the bookkeeping.
func (s *StandbySyncer) syncLocked() error {
	err := s.pull()
	s.countMu.Lock()
	defer s.countMu.Unlock()
	s.lastTry = time.Now()
	if err != nil {
		s.errors++
		return err
	}
	s.syncs++
	s.lastOK = s.lastTry
	return nil
}

func (s *StandbySyncer) pull() error {
	after, delta := s.local.ReplicaCursor(s.donor)
	arch, dump, err := s.primary.archive(after, delta)
	if err != nil {
		return fmt.Errorf("policyhttp: %w: %w", errPull, err)
	}
	if err := applyArchive(s.local, s.donor, arch, dump); err != nil {
		return fmt.Errorf("policyhttp: standby apply: %w", err)
	}
	return nil
}

// tick is one Run iteration: sync unless Active says this server is not a
// standby, deciding both under s.mu so a promotion cannot interleave.
func (s *StandbySyncer) tick() (ran bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Active != nil && !s.Active() {
		return false, nil
	}
	return true, s.syncLocked()
}

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
			if ran, err := s.tick(); ran && s.OnSync != nil {
				s.OnSync(err)
			}
		}
	}
}
