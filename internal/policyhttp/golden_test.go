package policyhttp

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// goldenDir holds the committed data directories and archives
// (internal/durable/golden_test.go writes them).
const goldenDir = "../durable/testdata/golden"

// TestGoldenArchivesApply replays the committed wire archives through the
// standby's one apply path: the full archive (snapshot + tail) onto an
// empty standby, and — onto a standby holding only the snapshot — the delta
// after it. Both must reach the committed state byte for byte, so a change
// that cannot apply what an earlier donor shipped fails here.
func TestGoldenArchivesApply(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := strings.TrimSuffix(string(read("state.json")), "\n")
	full, delta := read("archive.json"), read("archive_delta.json")
	var arch durable.Archive
	if err := json.Unmarshal(full, &arch); err != nil {
		t.Fatal(err)
	}
	arch.Tail = nil
	snapOnly, err := json.Marshal(&arch)
	if err != nil {
		t.Fatal(err)
	}
	after := "after=" + strconv.FormatUint(arch.SnapshotSeq, 10)

	for _, tc := range []struct {
		name  string
		pulls [][]byte // what the donor answers, pull by pull
	}{
		{"full", [][]byte{full}},
		{"snapshot then delta", [][]byte{snapOnly, delta}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			donor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if wantDelta := n > 0; wantDelta != (r.URL.RawQuery == after) {
					t.Errorf("pull %d asked %q", n, r.URL.RawQuery)
				}
				w.Header().Set("Content-Type", "application/json")
				w.Write(tc.pulls[n])
				n++
			}))
			defer donor.Close()
			cfg := policy.DefaultConfig()
			cfg.LeaseTTL = 30 // the fixtures' configuration
			local, err := policy.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStandbySyncer(local, NewClient(donor.URL, noSleep()), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for range tc.pulls {
				if err := s.SyncOnce(); err != nil {
					t.Fatal(err)
				}
			}
			if got := dumpJSON(t, local); got != want {
				t.Fatalf("applied archives diverge from state.json:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestDecodeArchiveMatchesUnmarshal: the standby's field-by-field archive
// decoder reads the committed archives — indented, full and delta — exactly
// as encoding/json does, and decodes the snapshot's dump from the bytes it
// reports. A field added to durable.Archive but not to decodeArchive fails
// here.
func TestDecodeArchiveMatchesUnmarshal(t *testing.T) {
	for _, name := range []string{"archive.json", "archive_delta.json"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		var want durable.Archive
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		got, dump, err := decodeArchive(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: decodeArchive = %+v, want %+v", name, got, want)
		}
		var wantDump *policy.StateDump
		if want.Snapshot != nil {
			if err := json.Unmarshal(want.Snapshot, &wantDump); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(dump, wantDump) {
			t.Fatalf("%s: decoded dump %+v, want %+v", name, dump, wantDump)
		}
	}
}
