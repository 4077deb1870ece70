// Package transfer implements the Pegasus Transfer Tool (PTT) equivalent:
// the client that actually executes data staging and cleanup operations.
// As in the paper's modified PTT, when a policy service is configured the
// tool first submits its transfer list to the service, then executes the
// returned (modified) list — grouped by host pair, in the advised order,
// with the advised parallel-stream counts — and finally reports completed
// and failed transfers back to the service.
package transfer

import (
	"context"
	"fmt"
	"sync"

	"policyflow/internal/policy"
	"policyflow/internal/simnet"
)

// Advisor is the policy service interface the PTT consults. Both
// *policy.Service (in-process) and *policyhttp.Client (REST) satisfy it.
type Advisor interface {
	AdviseTransfers([]policy.TransferSpec) (*policy.TransferAdvice, error)
	ReportTransfers(policy.CompletionReport) (*policy.ReportAck, error)
	AdviseCleanups([]policy.CleanupSpec) (*policy.CleanupAdvice, error)
	ReportCleanups(policy.CleanupReport) (*policy.ReportAck, error)
}

// ContextAdvisor is the optional Advisor extension for advisors that
// accept a caller context carrying a causal span context (both
// *policy.Service and *policyhttp.Client implement it). The PTT mints one
// trace per advised batch, so the advise call, the rule firings behind
// it, and the resulting transfer lifecycle events all share one trace ID.
type ContextAdvisor interface {
	AdviseTransfersCtx(ctx context.Context, specs []policy.TransferSpec) (*policy.TransferAdvice, error)
	ReportTransfersCtx(ctx context.Context, report policy.CompletionReport) (*policy.ReportAck, error)
	AdviseCleanupsCtx(ctx context.Context, specs []policy.CleanupSpec) (*policy.CleanupAdvice, error)
	ReportCleanupsCtx(ctx context.Context, report policy.CleanupReport) (*policy.ReportAck, error)
}

// KeyedContextReporter is the optional Advisor extension for advisors that
// accept a caller-chosen idempotency key next to the caller's trace
// context (the REST clients, replicated or not). The PTT sends every
// completion report through it when offered: each report keeps one key
// from its first attempt across every backlog drain, so a report that
// reached the service before a lost response is not applied twice, and
// it keeps its batch trace.
type KeyedContextReporter interface {
	ReportTransfersKeyedCtx(ctx context.Context, key string, report policy.CompletionReport) (*policy.ReportAck, error)
	ReportCleanupsKeyedCtx(ctx context.Context, key string, report policy.CleanupReport) (*policy.ReportAck, error)
}

// LeaseRenewer is the optional Advisor extension for advisors that expose
// lease renewal. The PTT re-acquires its lease when reconciling after a
// degraded-mode episode.
type LeaseRenewer interface {
	RenewLease(workflowID string) (*policy.LeaseStatus, error)
}

// Fabric abstracts the data plane: something that can move bytes between
// URLs and delete staged files, in simulated time.
type Fabric interface {
	// Transfer moves sizeBytes from srcURL to dstURL with the given
	// number of parallel streams, blocking p until done.
	Transfer(p *simnet.Proc, srcURL, dstURL string, sizeBytes int64, streams int) error
	// Delete removes the staged file at url.
	Delete(p *simnet.Proc, url string) error
}

// SimFabric is a Fabric backed by simnet pipes, one per host pair. Pipe
// configurations are chosen by the PipeConfigFor callback, so a WAN pair
// and a LAN pair get different bandwidth models.
type SimFabric struct {
	mu  sync.Mutex
	env *simnet.Env
	// PipeConfigFor selects the bandwidth model for a host pair.
	pipeConfigFor func(pair policy.HostPair) simnet.PipeConfig
	pipes         map[policy.HostPair]*simnet.Pipe
}

// deleteSeconds is the simulated cost of one file deletion.
const deleteSeconds = 0.2

// NewSimFabric creates a fabric on env. configFor may be nil, in which
// case every pair uses simnet.WANConfig.
func NewSimFabric(env *simnet.Env, configFor func(pair policy.HostPair) simnet.PipeConfig) *SimFabric {
	if configFor == nil {
		configFor = func(policy.HostPair) simnet.PipeConfig { return simnet.WANConfig() }
	}
	return &SimFabric{
		env:           env,
		pipeConfigFor: configFor,
		pipes:         make(map[policy.HostPair]*simnet.Pipe),
	}
}

// Pipe returns (creating on first use) the pipe for a host pair.
func (f *SimFabric) Pipe(pair policy.HostPair) *simnet.Pipe {
	f.mu.Lock()
	defer f.mu.Unlock()
	pipe, ok := f.pipes[pair]
	if !ok {
		pipe = f.env.NewPipe(f.pipeConfigFor(pair))
		f.pipes[pair] = pipe
	}
	return pipe
}

// Pipes returns a snapshot of all pipes created so far, keyed by pair.
func (f *SimFabric) Pipes() map[policy.HostPair]*simnet.Pipe {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[policy.HostPair]*simnet.Pipe, len(f.pipes))
	for k, v := range f.pipes {
		out[k] = v
	}
	return out
}

// Transfer implements Fabric.
func (f *SimFabric) Transfer(p *simnet.Proc, srcURL, dstURL string, sizeBytes int64, streams int) error {
	pair := policy.PairOf(srcURL, dstURL)
	pipe := f.Pipe(pair)
	sizeMB := float64(sizeBytes) / (1 << 20)
	if err := pipe.Transfer(p, sizeMB, streams); err != nil {
		return fmt.Errorf("transfer %s -> %s: %w", srcURL, dstURL, err)
	}
	return nil
}

// Delete implements Fabric.
func (f *SimFabric) Delete(p *simnet.Proc, url string) error {
	p.Sleep(deleteSeconds)
	return nil
}
