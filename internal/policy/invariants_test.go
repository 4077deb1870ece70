package policy

import (
	"context"
	"errors"
	"testing"
)

// busyBalancedDump is a legitimate Policy Memory with every fact kind the
// invariants read: two in-flight transfers per cluster, pair and cluster
// ledgers, a staged resource with users and a pending cleanup.
func busyBalancedDump(t *testing.T) *StateDump {
	t.Helper()
	s := newBalanced(t, 50, 4, 2)
	specs := []TransferSpec{spec(1, "wf1"), spec(2, "wf1"), spec(3, "wf2"), spec(4, "wf2")}
	specs[0].ClusterID, specs[1].ClusterID = "c1", "c1"
	specs[2].ClusterID, specs[3].ClusterID = "c2", "c2"
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdviseCleanups([]CleanupSpec{{WorkflowID: "wf1", FileURL: specs[0].DestURL}}); err != nil {
		t.Fatal(err)
	}
	d := s.ExportState()
	if len(d.Transfers) != 3 || len(d.Ledgers) != 1 || len(d.ClusterLedgers) != 2 || len(d.Cleanups) != 1 {
		t.Fatalf("dump does not hold every fact kind: %+v", d)
	}
	return d
}

func firstUser(d *StateDump) *UserCount {
	for _, r := range d.Resources {
		if len(r.Users) > 0 {
			return &r.Users[0]
		}
	}
	panic("dump has no resource users")
}

// TestImportRejectsCorruptState feeds import_state one corruption per row.
// Each breaks a guarantee the service relies on after the restore (no
// duplicate staging, per-pair stream accounting, reference counts), so a
// restore or a donor's archive carrying it must be refused before any
// advise is served from it.
func TestImportRejectsCorruptState(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *StateDump)
	}{
		{"duplicate transfer ID", func(d *StateDump) { d.Transfers[1].ID = d.Transfers[0].ID }},
		{"duplicate cleanup ID", func(d *StateDump) { d.Cleanups = append(d.Cleanups, d.Cleanups[0]) }},
		{"two transfers stage one dest URL", func(d *StateDump) {
			t2 := d.Transfers[0]
			t2.ID = "t-dup"
			t2.AllocatedStreams = 1
			d.Transfers = append(d.Transfers, t2)
			d.Ledgers[0].Allocated++
			for i := range d.ClusterLedgers {
				if d.ClusterLedgers[i].ClusterID == t2.ClusterID {
					d.ClusterLedgers[i].Allocated++
				}
			}
		}},
		{"transfer without streams", func(d *StateDump) {
			d.Ledgers[0].Allocated -= d.Transfers[0].AllocatedStreams
			for i := range d.ClusterLedgers {
				if d.ClusterLedgers[i].ClusterID == d.Transfers[0].ClusterID {
					d.ClusterLedgers[i].Allocated -= d.Transfers[0].AllocatedStreams
				}
			}
			d.Transfers[0].AllocatedStreams = 0
		}},
		{"ledger is not the sum of grants", func(d *StateDump) { d.Ledgers[0].Allocated = 40 }},
		{"grants without a ledger", func(d *StateDump) { d.Ledgers = nil }},
		{"cluster ledgers do not sum to the pair ledger", func(d *StateDump) { d.ClusterLedgers[0].Allocated++ }},
		{"negative user count", func(d *StateDump) { firstUser(d).Count = -2 }},
		{"zero user count", func(d *StateDump) { firstUser(d).Count = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := busyBalancedDump(t)
			tc.corrupt(d)
			if err := d.Verify(); err == nil {
				t.Fatal("Verify accepted the corrupt dump")
			}
			s := newBalanced(t, 50, 4, 2)
			before := s.ExportState()
			if _, err := s.Execute(context.Background(), OpImportState, d); !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("import_state = %v, want ErrInvalidRequest", err)
			}
			if after := s.ExportState(); len(after.Transfers) != len(before.Transfers) || after.NextTransfer != before.NextTransfer {
				t.Fatal("a refused import changed Policy Memory")
			}
		})
	}
	t.Run("legitimate dump", func(t *testing.T) {
		d := busyBalancedDump(t)
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
		if _, err := newBalanced(t, 50, 4, 2).Execute(context.Background(), OpImportState, d); err != nil {
			t.Fatal(err)
		}
	})
}

// TestImportRejectsInvalidBundle: a dump's bundle state comes from outside
// the program (a restore, a donor's archive, a snapshot file), so import
// checks it against the bundle schema as activation does. A bundle the
// schema rejects, active or previous, is refused before any side effect,
// and the service keeps its own tunables.
func TestImportRejectsInvalidBundle(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(b *BundleStateDump)
	}{
		{"unknown algorithm", func(b *BundleStateDump) { b.Active.Algorithm = "bogus" }},
		{"negative min streams", func(b *BundleStateDump) { b.Active.MinStreams = -3 }},
		{"previous without a version", func(b *BundleStateDump) {
			prev := *b.Active
			prev.Version = ""
			b.Previous = &prev
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := busyBalancedDump(t)
			active := *d.Bundle.Active
			d.Bundle = &BundleStateDump{Active: &active}
			tc.corrupt(d.Bundle)
			s := newGreedy(t, 50, 4)
			if _, err := s.Execute(context.Background(), OpImportState, d); !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("import_state = %v, want ErrInvalidRequest", err)
			}
			if b := s.ActiveBundle(); b.Algorithm != string(AlgoGreedy) || b.MinStreams != 1 {
				t.Fatalf("a refused import changed the active bundle: %+v", b)
			}
			if after := s.ExportState(); len(after.Transfers) != 0 || after.NextTransfer != 0 {
				t.Fatal("a refused import changed Policy Memory")
			}
		})
	}
}
