package policy

import (
	"context"
	"errors"
	"fmt"

	"policyflow/internal/bundle"
	"policyflow/internal/obs"
)

// ThresholdOp is the logged payload of a SetThreshold call.
type ThresholdOp struct {
	SourceHost string `json:"sourceHost" xml:"sourceHost"`
	DestHost   string `json:"destHost" xml:"destHost"`
	Max        int    `json:"max" xml:"max"`
}

// BundleOp is the logged payload of an ActivateBundle mutation. The full
// bundle document is embedded so replay is self-contained: recovery needs
// no access to the file or push that originally supplied the bundle.
type BundleOp struct {
	Bundle *bundle.Bundle `json:"bundle"`

	// The request may instead name what to activate; it is resolved to the
	// full document under the service lock and only that is ever logged.
	// Doc is a raw bundle document to parse, Version a staged or previously
	// activated version, Rollback the previously active bundle.
	Doc      []byte `json:"-"`
	Version  string `json:"-"`
	Rollback bool   `json:"-"`
}

// MutationLog receives every Policy Memory mutation command, in
// application order, before it is applied (write-ahead semantics). Append
// is called with the service lock held — implementations must not call
// back into the service — and assigns a sequence number; Sync is called
// after the lock is released and blocks until the record is durable, so
// implementations can group-commit concurrent operations under one fsync.
// A nil MutationLog (the default) keeps the service purely in-memory.
type MutationLog interface {
	Append(op string, payload any) (seq uint64, err error)
	Sync(seq uint64) error
}

// SetMutationLog attaches l as the service's write-ahead mutation log
// (nil detaches). Attach before serving traffic: operations accepted
// while no log is attached are not persisted.
func (s *Service) SetMutationLog(l MutationLog) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mlog = l
}

// ErrMutationLog wraps every failure of the service's own write-ahead log
// (append or sync). Unlike a rejected request, it is local to this
// replica: the mutation is not durable here, so replay and resync callers
// must stop rather than skip the record. Test with errors.Is.
var ErrMutationLog = errors.New("policy: mutation log")

// appendLog records one mutation command under a wal.append span. Callers
// hold s.mu, so log order equals application order. A failed append fails
// the operation before any state changes.
func (s *Service) appendLog(ctx context.Context, op string, payload any) (uint64, error) {
	if s.mlog == nil {
		return 0, nil
	}
	_, span := obs.StartSpan(ctx, s.tracer, "wal.append")
	seq, err := s.mlog.Append(op, payload)
	span.SetWALSeq(seq)
	span.End()
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrMutationLog, err)
	}
	return seq, nil
}

// syncLog waits for the record at seq to become durable in l. Callers
// must not hold s.mu — this is where concurrent batches overlap their
// fsyncs.
func syncLog(l MutationLog, seq uint64) error {
	if seq == 0 || l == nil {
		return nil
	}
	if err := l.Sync(seq); err != nil {
		return fmt.Errorf("%w: sync: %w", ErrMutationLog, err)
	}
	return nil
}
