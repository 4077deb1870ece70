package policyhttp

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"policyflow/internal/policy"
)

// FuzzDecodeRequest throws arbitrary bytes at the wire-envelope decoder —
// every request DTO, both JSON and XML — and then at the full server
// request path. Malformed, truncated, deeply nested or type-confused
// payloads must produce an error response, never a panic or a hang.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"transfers":[{"requestId":"r1","workflowId":"wf1","sourceUrl":"gsiftp://s/f","destUrl":"gsiftp://d/f"}]}`), uint8(0))
	f.Add([]byte(`{"cleanups":[{"requestId":"r2","workflowId":"wf1","fileUrl":"gsiftp://d/f"}]}`), uint8(1))
	f.Add([]byte(`{"transferIds":["t-00000001"],"failedIds":["t-00000002"]}`), uint8(2))
	f.Add([]byte(`{"cleanupIds":["c-00000001"]}`), uint8(3))
	f.Add([]byte(`{"sourceHost":"a","destHost":"b","max":5}`), uint8(4))
	f.Add([]byte(`{"nextTransfer":3,"transfers":[{"id":"t-1","sourceUrl":"s","destUrl":"d","state":3}]}`), uint8(5))
	f.Add([]byte(`<transferRequest><transfers><transfer><requestId>r1</requestId></transfer></transfers></transferRequest>`), uint8(64))
	f.Add([]byte(`<threshold><sourceHost>a</sourceHost><destHost>b</destHost><max>2</max></threshold>`), uint8(68))
	f.Add([]byte(`{"transfers":[`), uint8(0))
	f.Add([]byte(`{"transfers":{"not":"a list"}}`), uint8(0))
	f.Add([]byte(`<transferRequest>`), uint8(64))
	f.Add([]byte{0xff, 0xfe, 0x00}, uint8(0))

	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(svc, nil)
	endpoints := []string{
		"/v1/transfers",
		"/v1/cleanups",
		"/v1/transfers/completed",
		"/v1/cleanups/completed",
		"/v1/thresholds",
		"/v1/state/restore",
	}

	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		// Decode layer: every envelope, both wire formats.
		targets := []any{
			&TransferRequest{}, &CleanupRequest{}, &policy.CompletionReport{},
			&policy.CleanupReport{}, &policy.ThresholdOp{}, &policy.StateDump{},
		}
		for _, v := range targets {
			for _, f := range []format{formatJSON, formatXML} {
				b := getBuffer()
				_ = b.decode(bytes.NewReader(data), maxBodyBytes, f, v, true)
				b.release()
			}
		}

		// Full request path: the response must terminate with a sane status.
		endpoint := endpoints[int(pick)%len(endpoints)]
		method := http.MethodPost
		if endpoint == "/v1/thresholds" {
			method = http.MethodPut
		}
		req := httptest.NewRequest(method, endpoint, bytes.NewReader(data))
		if pick >= 64 {
			req.Header.Set("Content-Type", "application/xml")
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("endpoint %s answered impossible status %d", endpoint, rec.Code)
		}
	})
}
