package main

import (
	"strings"
	"testing"
)

func trajectory(s Series) *Trajectory {
	return &Trajectory{SchemaVersion: SchemaVersion, Series: []Series{s}}
}

// TestCompareGatesBytesPerOp: B/op is gated beside allocs/op at the same
// fixed tolerance — a planted +50 % fails, a −40 % passes — and time stays
// under its own, looser tolerance.
func TestCompareGatesBytesPerOp(t *testing.T) {
	base := Series{Name: "roundtrip", NsPerOp: 1000, BytesPerOp: 40000, AllocsPerOp: 400}
	cases := []struct {
		name    string
		fresh   Series
		failing string // "" = pass
	}{
		{"unchanged", base, ""},
		{"bytes +50%", Series{Name: "roundtrip", NsPerOp: 1000, BytesPerOp: 60000, AllocsPerOp: 400}, "B/op"},
		{"bytes -40%", Series{Name: "roundtrip", NsPerOp: 1000, BytesPerOp: 24000, AllocsPerOp: 400}, ""},
		{"bytes +9%", Series{Name: "roundtrip", NsPerOp: 1000, BytesPerOp: 43600, AllocsPerOp: 400}, ""},
		{"allocs +50%", Series{Name: "roundtrip", NsPerOp: 1000, BytesPerOp: 40000, AllocsPerOp: 600}, "allocs/op"},
		{"time +20%", Series{Name: "roundtrip", NsPerOp: 1200, BytesPerOp: 40000, AllocsPerOp: 400}, ""},
		{"time +50%", Series{Name: "roundtrip", NsPerOp: 1500, BytesPerOp: 40000, AllocsPerOp: 400}, "ns/op"},
	}
	for _, tc := range cases {
		failures := compare(trajectory(base), trajectory(tc.fresh), 0.30)
		switch {
		case tc.failing == "" && len(failures) > 0:
			t.Errorf("%s: unexpected failures %q", tc.name, failures)
		case tc.failing != "" && (len(failures) != 1 || !strings.Contains(failures[0], tc.failing)):
			t.Errorf("%s: failures %q, want one naming %s", tc.name, failures, tc.failing)
		}
	}
	if f := compare(trajectory(base), &Trajectory{SchemaVersion: SchemaVersion}, 0.30); len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Errorf("missing series: failures %q", f)
	}
}
