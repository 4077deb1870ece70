package policy

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// Conformance over the op table: every check below ranges over ops, so a
// new table row is exercised without touching this file. conformanceSamples
// supplies a WAL-form payload that makes each known op actually mutate the
// prelude state; an op without a sample still runs every check, with its
// zero payload.
var conformanceSamples = map[string]string{
	OpAdviseTransfers: `[{"requestId":"r9","workflowId":"wf2","sourceUrl":"gsiftp://src.example.org/f9","destUrl":"file://dst.example.org/f9"}]`,
	OpReportTransfers: `{"transferIds":["t-00000001"]}`,
	OpAdviseCleanups:  `[{"requestId":"c9","workflowId":"wf2","fileUrl":"file://dst.example.org/f9"}]`,
	OpReportCleanups:  `{"cleanupIds":["c-00000001"]}`,
	OpSetThreshold:    `{"sourceHost":"src.example.org","destHost":"dst.example.org","max":7}`,
	OpImportState:     `{"nextTransfer":41,"nextGroup":3,"nextCleanup":2,"epoch":5}`,
	OpRenewLease:      `{"workflowId":"wf9"}`,
	OpAdvanceClock:    `{"now":1000}`,
	OpActivateBundle: `{"bundle":{"schemaVersion":1,"version":"conf-v1","algorithm":"balanced",
		"defaultStreams":2,"minStreams":1,"defaultThreshold":20,"clusterFactor":2}}`,
	OpBumpEpoch: `{"epoch":9}`,
}

// conformanceService builds a service holding state every sample can bite
// on: leases enabled, t-00000001 in flight, f002 staged, c-00000001 pending.
func conformanceService(t *testing.T) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LeaseTTL = 60
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1"), spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[1].ID}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdviseCleanups([]CleanupSpec{{RequestID: "c1", WorkflowID: "wf1", FileURL: spec(2, "").DestURL}}); err != nil {
		t.Fatal(err)
	}
	return s
}

func samplePayload(t *testing.T, op *opSpec) any {
	t.Helper()
	sample, ok := conformanceSamples[op.name]
	if !ok {
		t.Logf("op %s has no conformance sample; using its zero payload", op.name)
		sample = "null"
	}
	req, err := op.decode([]byte(sample))
	if err != nil {
		t.Fatalf("decode sample: %v", err)
	}
	return req
}

func stateJSON(t *testing.T, s *Service) string {
	t.Helper()
	data, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestOpConformanceReplayRoundTrip: Execute against a recording log, then
// ApplyLogged of exactly what was recorded into a twin service, yields a
// byte-identical dump — live traffic and replay are one path.
func TestOpConformanceReplayRoundTrip(t *testing.T) {
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			live, twin := conformanceService(t), conformanceService(t)
			before := stateJSON(t, live)
			fl := &fakeLog{}
			live.SetMutationLog(fl)
			_, err := live.Execute(context.Background(), op.name, samplePayload(t, op))
			if _, sampled := conformanceSamples[op.name]; sampled {
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				if len(fl.ops) != 1 || fl.ops[0] != op.name {
					t.Fatalf("logged %v, want exactly one %s record", fl.ops, op.name)
				}
				if len(fl.synced) != 1 || fl.synced[0] != 1 {
					t.Fatalf("synced %v, want the one record", fl.synced)
				}
				if stateJSON(t, live) == before {
					t.Fatal("sample did not change Policy Memory; it proves nothing")
				}
			}
			for i, logged := range fl.ops {
				if err := twin.ApplyLogged(logged, fl.payloads[i]); err != nil {
					t.Fatalf("ApplyLogged(%s): %v", logged, err)
				}
			}
			if got, want := stateJSON(t, twin), stateJSON(t, live); got != want {
				t.Fatalf("replay diverged:\n live %s\n twin %s", want, got)
			}
		})
	}
}

// TestOpConformanceCancelledContext: a mutation whose context is already
// done is abandoned before any side effect, whatever the op and whether it
// arrives alone (Execute) or in a batch.
func TestOpConformanceCancelledContext(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			s := conformanceService(t)
			fl := &fakeLog{}
			s.SetMutationLog(fl)
			before, decisions := stateJSON(t, s), s.decisions.next
			res, err := s.Execute(dead, op.name, samplePayload(t, op))
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("Execute = (%v, %v), want (nil, context.Canceled)", res, err)
			}
			if len(fl.ops) != 0 {
				t.Errorf("abandoned mutation appended %v", fl.ops)
			}
			if stateJSON(t, s) != before {
				t.Error("abandoned mutation changed Policy Memory")
			}
			if s.decisions.next != decisions {
				t.Error("abandoned mutation committed a decision record")
			}
		})
	}
}

// TestUnknownOpRejected: a name outside the table is an error from every
// entry point, never a silent no-op.
func TestUnknownOpRejected(t *testing.T) {
	s := conformanceService(t)
	if _, err := s.Execute(context.Background(), "no-such-op", nil); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("Execute(unknown) = %v, want ErrInvalidRequest", err)
	}
	if err := s.ApplyLogged("no-such-op", []byte(`{}`)); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("ApplyLogged(unknown) = %v, want ErrInvalidRequest", err)
	}
	if OpAdmitted("no-such-op") {
		t.Error("unknown op reported as admitted")
	}
}

// TestValidationLivesWithTheOp: the checks the HTTP handlers used to keep
// private now reject in-process and replay callers identically, before
// anything is logged.
func TestValidationLivesWithTheOp(t *testing.T) {
	cases := []struct {
		name string
		op   string
		req  any
		wal  string // the same request in WAL form, for the replay path
	}{
		{"threshold without hosts", OpSetThreshold, ThresholdOp{Max: 5}, `{"sourceHost":"","destHost":"","max":5}`},
		{"threshold below one", OpSetThreshold, ThresholdOp{SourceHost: "a", DestHost: "b"}, `{"sourceHost":"a","destHost":"b","max":0}`},
		{"activation selecting nothing", OpActivateBundle, BundleOp{}, ""},
		{"activation selecting twice", OpActivateBundle, BundleOp{Version: "v0", Rollback: true}, ""},
		{"lease without workflow", OpRenewLease, LeaseOp{}, `{"workflowId":""}`},
		{"transfer without URLs", OpAdviseTransfers, []TransferSpec{{RequestID: "bad"}}, `[{"requestId":"bad"}]`},
		{"cleanup without file", OpAdviseCleanups, []CleanupSpec{{RequestID: "bad"}}, `[{"requestId":"bad"}]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := conformanceService(t)
			fl := &fakeLog{}
			s.SetMutationLog(fl)
			before := stateJSON(t, s)
			if _, err := s.Execute(context.Background(), tc.op, tc.req); !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("Execute = %v, want ErrInvalidRequest", err)
			}
			if tc.wal != "" {
				// Deterministic rejections replay as rejections: discarded.
				if err := s.ApplyLogged(tc.op, []byte(tc.wal)); err != nil {
					t.Fatalf("ApplyLogged = %v, want the rejection discarded", err)
				}
			}
			if len(fl.ops) != 0 || stateJSON(t, s) != before {
				t.Fatalf("rejected request left a trace: logged %v", fl.ops)
			}
		})
	}
	// The typed wrapper sees the same validation as the table entry.
	if err := conformanceService(t).SetThreshold("", "", 5); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("SetThreshold without hosts = %v, want ErrInvalidRequest", err)
	}
}

// TestApplyLoggedReturnsLogFailures: replay discards deterministic
// application errors but must surface a failure of the replaying
// service's OWN log — the record was not applied, and a caller that
// advanced past it would later serve a state missing an acked write.
func TestApplyLoggedReturnsLogFailures(t *testing.T) {
	for _, fail := range []struct {
		name string
		log  *fakeLog
	}{
		{"append", &fakeLog{appendErr: errors.New("disk full")}},
		{"sync", &fakeLog{syncErr: errors.New("io error")}},
	} {
		t.Run(fail.name, func(t *testing.T) {
			s := conformanceService(t)
			s.SetMutationLog(fail.log)
			err := s.ApplyLogged(OpAdviseTransfers, []byte(conformanceSamples[OpAdviseTransfers]))
			if !errors.Is(err, ErrMutationLog) {
				t.Fatalf("ApplyLogged with a failing %s = %v, want ErrMutationLog", fail.name, err)
			}
		})
	}
	// A healthy log and a rejected request: still discarded.
	s := conformanceService(t)
	s.SetMutationLog(&fakeLog{})
	if err := s.ApplyLogged(OpSetThreshold, []byte(`{"sourceHost":"a","destHost":"b","max":0}`)); err != nil {
		t.Fatalf("rejected request surfaced from replay: %v", err)
	}
}
