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

// Advisor is the policy service's four-call interface, the paper's
// RESTful one: *policy.Service (in process), *policyhttp.Client and
// *policyhttp.ReplicatedClient (over the wire) satisfy it. All three are
// also policy.Executors, and the PTT calls an Executor through Execute
// alone, passing each batch's trace and each report's idempotency key in
// the context. Any other Advisor, such as a wrapper that times the plain
// calls, runs through advisorExecutor, which carries neither.
type Advisor interface {
	AdviseTransfers([]policy.TransferSpec) (*policy.TransferAdvice, error)
	ReportTransfers(policy.CompletionReport) (*policy.ReportAck, error)
	AdviseCleanups([]policy.CleanupSpec) (*policy.CleanupAdvice, error)
	ReportCleanups(policy.CleanupReport) (*policy.ReportAck, error)
}

// advisorExecutor is the policy.Executor over an Advisor's four plain
// methods. It drops ctx, and with it the trace and the idempotency key,
// and answers any other op (a lease renewal) with an error.
type advisorExecutor struct{ a Advisor }

func (x advisorExecutor) Execute(_ context.Context, op string, payload any) (any, error) {
	switch p := payload.(type) {
	case []policy.TransferSpec:
		if op == policy.OpAdviseTransfers {
			return x.a.AdviseTransfers(p)
		}
	case policy.CompletionReport:
		if op == policy.OpReportTransfers {
			return x.a.ReportTransfers(p)
		}
	case []policy.CleanupSpec:
		if op == policy.OpAdviseCleanups {
			return x.a.AdviseCleanups(p)
		}
	case policy.CleanupReport:
		if op == policy.OpReportCleanups {
			return x.a.ReportCleanups(p)
		}
	}
	return nil, fmt.Errorf("%w: advisor has no %s for a %T payload", policy.ErrInvalidRequest, op, payload)
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
