package policyhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// BenchmarkReceiveArchive measures the receiving half of a full resync:
// decode a donor's full archive of 10 000 resident staged files and restore it
// into a standby (decodeArchive + ApplyReplica), without the HTTP round
// trip. The archive is the bytes a memory-only donor serves.
func BenchmarkReceiveArchive(b *testing.B) {
	const files = 10000
	donor, err := policy.New(policy.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for base := 0; base < files; base += 500 {
		specs := make([]policy.TransferSpec, 0, 500)
		for i := base; i < base+500; i++ {
			specs = append(specs, testSpec(i, "wf-resident"))
		}
		adv, err := donor.AdviseTransfers(specs)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(adv.Transfers))
		for i, t := range adv.Transfers {
			ids[i] = t.ID
		}
		if _, err := donor.ReportTransfers(policy.CompletionReport{TransferIDs: ids}); err != nil {
			b.Fatal(err)
		}
	}
	state, err := json.Marshal(donor.ExportState())
	if err != nil {
		b.Fatal(err)
	}
	var wire bytes.Buffer
	if err := json.NewEncoder(&wire).Encode(&durable.Archive{Snapshot: state}); err != nil {
		b.Fatal(err)
	}
	local, err := policy.New(policy.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	facts := donor.FactCount()
	b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A puller reads each archive into a buffer of its own.
			data := bytes.Clone(wire.Bytes())
			arch, dump, err := decodeArchive(data)
			if err == nil {
				err = applyArchive(local, "donor", arch, dump)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if got := local.FactCount(); got != facts {
			b.Fatalf("standby holds %d facts, donor %d", got, facts)
		}
	})
}
