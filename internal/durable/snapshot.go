package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshots are JSON envelopes written atomically (temp file, fsync,
// rename) and self-validating: the envelope carries a CRC-32 of the state
// payload, so a damaged snapshot is skipped in favor of an older one. The
// envelope is framed around the state's exact bytes,
//
//	{"seq":N,"crc":C,"epoch":E,"state":<state>}
//
// (epoch omitted when 0), so neither writing nor loading a snapshot
// re-encodes the state, and the checksum covers the bytes on disk. For
// compact state this is what json.Marshal of snapshotHeader plus a state
// field would write.
type snapshotHeader struct {
	Seq uint64 `json:"seq"`
	CRC uint32 `json:"crc"`
	// Epoch is the fencing epoch of the state, lifted into the header so
	// archives and recovery can report it without decoding the state.
	Epoch uint64 `json:"epoch,omitempty"`
}

// stateField ends a snapshot's header and opens its state payload.
var stateField = []byte(`,"state":`)

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.json", seq))
}

// writeSnapshotFile atomically persists state, a JSON value, as the
// snapshot at seq with header epoch epoch.
func writeSnapshotFile(dir string, seq, epoch uint64, state []byte) error {
	if len(state) == 0 {
		return fmt.Errorf("durable: snapshot %d has no state", seq)
	}
	head := fmt.Appendf(nil, `{"seq":%d,"crc":%d`, seq, crc32.ChecksumIEEE(state))
	if epoch != 0 {
		head = fmt.Appendf(head, `,"epoch":%d`, epoch)
	}
	head = append(head, stateField...)
	path := snapshotPath(dir, seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, part := range [][]byte{head, state, []byte("}")} {
		if _, err = f.Write(part); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// parseSnapshot reads the header of a snapshot file and slices out its
// state, verifying the checksum; the state is not decoded. ok is false for
// a file that is not a valid envelope.
func parseSnapshot(data []byte) (hdr snapshotHeader, state []byte, ok bool) {
	i := bytes.Index(data, stateField)
	if i < 0 || data[len(data)-1] != '}' || json.Unmarshal(append(data[:i:i], '}'), &hdr) != nil {
		return hdr, nil, false
	}
	state = data[i+len(stateField) : len(data)-1]
	return hdr, state, len(state) > 0 && crc32.ChecksumIEEE(state) == hdr.CRC
}

// listSnapshots returns the snapshot sequence numbers present in dir,
// ascending. Leftover .tmp files from interrupted writes are ignored.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "snap-%d.json", &seq); n != 1 || err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// loadLatestSnapshot returns the newest snapshot in dir whose checksum
// validates — its log position, header epoch and state payload — or
// (0, 0, nil, nil) when none exists. Invalid snapshots are skipped,
// falling back to older ones.
func loadLatestSnapshot(dir string) (uint64, uint64, []byte, error) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(snapshotPath(dir, seqs[i]))
		if err != nil {
			continue
		}
		hdr, state, ok := parseSnapshot(data)
		if !ok || hdr.Seq != seqs[i] {
			continue
		}
		return hdr.Seq, hdr.Epoch, state, nil
	}
	return 0, 0, nil, nil
}

// pruneSnapshots removes all but the newest keep snapshots.
func pruneSnapshots(dir string, keep int) {
	seqs, err := listSnapshots(dir)
	if err != nil || len(seqs) <= keep {
		return
	}
	for _, seq := range seqs[:len(seqs)-keep] {
		os.Remove(snapshotPath(dir, seq))
	}
}
