package policy_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// TestReadersShareTheServiceLock pins the locking rule: the service lock
// is the only lock on Policy Memory, so every reader of the rule session
// must take it. Writers run the advise/report/cleanup cycle through
// Execute and through ExecutePipelined batches while readers call every
// exported read and render the metrics registry; under -race a reader
// that skips the lock is a reported data race. At rest, the rendered
// session families agree with the typed readers.
func TestReadersShareTheServiceLock(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.LeaseTTL = 3600
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.Instrument(reg, nil)

	const execWorkers, execCycles, pipeBatches, pipeWidth = 2, 30, 15, 4
	spec := func(wf, name string) policy.TransferSpec {
		return policy.TransferSpec{RequestID: name, WorkflowID: wf,
			SourceURL: "gsiftp://src.example.org/" + name, DestURL: "file://dst.example.org/" + name,
			SizeBytes: 1 << 20}
	}
	errs := make(chan error, execWorkers+1)
	var writers sync.WaitGroup

	// Execute: one op per call, the full cycle per file.
	for w := 0; w < execWorkers; w++ {
		writers.Add(1)
		go func(wf string) {
			defer writers.Done()
			errs <- func() error {
				ctx := context.Background()
				for i := 0; i < execCycles; i++ {
					name := fmt.Sprintf("%s-f%d", wf, i)
					adv, err := policy.Call[*policy.TransferAdvice](ctx, svc, policy.OpAdviseTransfers,
						[]policy.TransferSpec{spec(wf, name)})
					if err != nil {
						return err
					}
					if len(adv.Transfers) != 1 {
						return fmt.Errorf("%s: advised %d transfers, want 1", name, len(adv.Transfers))
					}
					if _, err := policy.Call[*policy.ReportAck](ctx, svc, policy.OpReportTransfers,
						policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
						return err
					}
					cl, err := policy.Call[*policy.CleanupAdvice](ctx, svc, policy.OpAdviseCleanups,
						[]policy.CleanupSpec{{RequestID: name + "-c", WorkflowID: wf, FileURL: "file://dst.example.org/" + name}})
					if err != nil {
						return err
					}
					ids := make([]string, 0, len(cl.Cleanups))
					for _, c := range cl.Cleanups {
						ids = append(ids, c.ID)
					}
					if _, err := policy.Call[*policy.ReportAck](ctx, svc, policy.OpReportCleanups,
						policy.CleanupReport{CleanupIDs: ids}); err != nil {
						return err
					}
				}
				return nil
			}()
		}(fmt.Sprintf("wf-exec%d", w))
	}

	// ExecutePipelined: batches of advises, then one batch reporting them,
	// as the admission dispatcher hands them over.
	writers.Add(1)
	go func() {
		defer writers.Done()
		errs <- func() error {
			run := func(batch []*policy.BatchMutation) error {
				svc.ExecutePipelined(batch)
				for _, m := range batch {
					m.Wait()
					if m.Err != nil {
						return m.Err
					}
				}
				return nil
			}
			for b := 0; b < pipeBatches; b++ {
				batch := make([]*policy.BatchMutation, pipeWidth)
				for i := range batch {
					batch[i] = &policy.BatchMutation{Ctx: context.Background(), Op: policy.OpAdviseTransfers,
						Request: []policy.TransferSpec{spec("wf-pipe", fmt.Sprintf("pipe-b%d-%d", b, i))}}
				}
				if err := run(batch); err != nil {
					return err
				}
				var report policy.CompletionReport
				for _, m := range batch {
					for _, tr := range m.Result.(*policy.TransferAdvice).Transfers {
						report.TransferIDs = append(report.TransferIDs, tr.ID)
					}
				}
				if err := run([]*policy.BatchMutation{{Ctx: context.Background(),
					Op: policy.OpReportTransfers, Request: report}}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastFirings int64
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = svc.Snapshot()
				_, _ = svc.Stats()
				if f := svc.RuleFirings(); f < lastFirings {
					t.Errorf("RuleFirings went back from %d to %d", lastFirings, f)
				} else {
					lastFirings = f
				}
				_ = svc.FactCount()
				_ = svc.ExportState()
				_ = svc.Leases()
				_ = svc.Decisions(8)
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}

	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("policy_rule_firings_total %d\n", svc.RuleFirings()),
		fmt.Sprintf("policy_memory_facts %d\n", svc.FactCount()),
		fmt.Sprintf("policy_transfers_in_flight %d\n", 0),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics at rest lack %q", strings.TrimSpace(want))
		}
	}
	if advised, _ := svc.Stats(); advised != execWorkers*execCycles+pipeBatches*pipeWidth {
		t.Errorf("advised = %d, want %d", advised, execWorkers*execCycles+pipeBatches*pipeWidth)
	}
}
