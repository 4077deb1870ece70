// Package durable persists Policy Memory across process crashes: an
// append-only write-ahead log of mutation commands (length-prefixed,
// CRC-checksummed JSON records with monotonic sequence numbers), periodic
// snapshots of the full state, log compaction at snapshot boundaries, and
// a recovery path that loads the latest valid snapshot and replays the WAL
// tail — tolerating a torn final record from a mid-write crash. The policy
// service being deterministic, logging the *requests* (advise, report,
// threshold, restore) is sufficient: replaying them in order reproduces
// Policy Memory exactly, including assigned transfer and group IDs.
//
// The package is stdlib-only, like the rest of the reproduction. The
// generic layers (Record, WAL, Store) know nothing about policy; the
// PolicyStore type binds a Store to a *policy.Service.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"policyflow/internal/canon"
)

// Record is one logged mutation command. Data holds the operation's
// request payload exactly as submitted (a transfer-spec list, a completion
// report, ...); Op names the policy operation that consumes it.
type Record struct {
	Seq  uint64          `json:"seq"`
	Op   string          `json:"op"`
	Data json.RawMessage `json:"data,omitempty"`
}

var recordFields = []canon.Field[Record]{
	{Name: "seq", Decode: func(d *canon.Decoder, r *Record) { r.Seq = d.Uint64() }},
	{Name: "op", Decode: func(d *canon.Decoder, r *Record) { r.Op = d.String() }},
	{Name: "data", Decode: func(d *canon.Decoder, r *Record) { r.Data = d.Raw() }},
}

func decodeRecordFields(d *canon.Decoder, r *Record) { canon.Object(d, r, recordFields) }

// decodeRecord decodes a record body (see package canon). Data aliases
// body when body is canonical.
func decodeRecord(body []byte) (rec Record, err error) {
	err = canon.Unmarshal(body, &rec, decodeRecordFields)
	return rec, err
}

// Record framing on disk: a fixed header of the body length (uint32,
// little endian) and the body's CRC-32 (IEEE), followed by the JSON body.
// A record is valid only when the full body is present and its checksum
// matches, so a crash mid-write leaves a detectably torn tail.
const recordHeaderSize = 8

// maxRecordSize bounds a single record body; a length prefix beyond it is
// treated as corruption rather than allocated.
const maxRecordSize = 64 << 20

// ErrCorrupt reports a WAL segment damaged somewhere other than its tail
// (a tear at the tail is expected after a crash and handled silently).
var ErrCorrupt = errors.New("durable: corrupt WAL segment")

// writeRecord frames and writes one record, returning the bytes written.
func writeRecord(w io.Writer, rec *Record) (int, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("durable: encode record %d: %w", rec.Seq, err)
	}
	if len(body) > maxRecordSize {
		return 0, fmt.Errorf("durable: record %d exceeds %d bytes", rec.Seq, maxRecordSize)
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return recordHeaderSize, err
	}
	return recordHeaderSize + len(body), nil
}

// scanRecords reads framed records from r until EOF or damage, calling fn
// for each valid record in order. It returns the byte offset of the end of
// the last valid record — the truncation point for reopening the segment —
// and the number of valid records. Damage at the tail (short header, short
// body, checksum or JSON mismatch on the final frame) ends the scan
// without error; fn errors abort the scan and are returned.
func scanRecords(r io.Reader, fn func(Record) error) (valid int64, n int, err error) {
	br := &byteCounter{r: r}
	for {
		var hdr [recordHeaderSize]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// Clean EOF or a torn header: everything before it is good.
			return valid, n, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordSize {
			return valid, n, nil
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return valid, n, nil
		}
		if crc32.ChecksumIEEE(body) != sum {
			return valid, n, nil
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return valid, n, nil
		}
		if err := fn(rec); err != nil {
			return valid, n, err
		}
		valid = br.n
		n++
	}
}

// recordFollows reports whether a valid record with Seq > prev starts
// anywhere in damaged past its first byte, where a scan stopped. A write
// torn by a crash leaves nothing valid behind it; rot in the middle of a
// log does. Header lengths read from JSON text or zeroes are out of range
// or tiny, so the search stays linear in practice.
func recordFollows(damaged []byte, prev uint64) bool {
	for off := 1; off+recordHeaderSize <= len(damaged); off++ {
		length := binary.LittleEndian.Uint32(damaged[off:])
		end := off + recordHeaderSize + int(length)
		if length == 0 || length > maxRecordSize || end > len(damaged) {
			continue
		}
		body := damaged[off+recordHeaderSize : end]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(damaged[off+4:]) {
			continue
		}
		if rec, err := decodeRecord(body); err == nil && rec.Seq > prev {
			return true
		}
	}
	return false
}

// byteCounter counts bytes consumed from r.
type byteCounter struct {
	r io.Reader
	n int64
}

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
