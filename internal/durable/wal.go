// Package durable is the persistence layer under the delta-server /v2
// jobs API: a write-ahead log of job lifecycle records with periodic
// compacted snapshots (store.go), the one durable copy of a job's
// results.
//
// The WAL is a single append-only file of length-prefixed, CRC-checked
// frames. Each frame carries one JSON-encoded lifecycle record: a job was
// submitted, produced one point result, reached a terminal status, or was
// evicted. Replay applies the records over the last snapshot; a torn or
// corrupt tail (the crash case) is tolerated by keeping the longest valid
// prefix and truncating the rest, never by refusing to start.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout: u32 little-endian payload length, u32 CRC-32 (IEEE) of the
// payload, then the payload bytes.
const frameHeaderLen = 8

// maxRecordLen bounds one frame payload. A record holds one rendered point
// result or one scenario document, both far below this; anything larger in
// the length field means the log is corrupt, not that a giant record needs
// reading.
const maxRecordLen = 16 << 20

// Record types.
const (
	recSubmit = "submit"
	recResult = "result"
	recFinish = "finish"
	recEvict  = "evict"
)

// walRecord is the JSON payload of one WAL frame. One struct covers every
// record type; unused fields stay empty and cost nothing encoded.
type walRecord struct {
	T   string `json:"t"`
	Job string `json:"job"`

	// recSubmit fields.
	Name        string          `json:"name,omitempty"`
	Total       int             `json:"total,omitempty"`
	CreatedUnix int64           `json:"created,omitempty"` // UnixNano
	Scenario    json.RawMessage `json:"scenario,omitempty"`
	Policy      string          `json:"policy,omitempty"`

	// recResult fields: Seq is the result's position in expansion order
	// (0-based, dense — the resume contract), Payload the rendered point.
	Seq     int             `json:"seq,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`

	// recFinish fields.
	Status       string `json:"status,omitempty"`
	Error        string `json:"error,omitempty"`
	FinishedUnix int64  `json:"finished,omitempty"` // UnixNano
}

// appendFrame encodes one frame into buf and returns the extended slice.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// errTornTail marks a frame that cannot be trusted: short header, short
// payload, an insane length, or a CRC mismatch. Replay stops there and the
// writer truncates the file to the last good offset.
var errTornTail = errors.New("durable: torn or corrupt WAL tail")

// readFrame reads one frame from r, which holds room more bytes. It
// returns errTornTail for any damage that is consistent with a crash
// mid-append; io.EOF cleanly ends a log.
func readFrame(r io.Reader, room int64) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, errTornTail // partial header: torn append
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxRecordLen || int64(n) > room-frameHeaderLen {
		// A length the file cannot hold is a torn header; checking it
		// before allocating keeps replay from sizing a buffer for bytes
		// that are not there.
		return nil, errTornTail
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornTail // partial payload: torn append
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errTornTail
	}
	return payload, nil
}

// replayWAL streams records from r, calling apply for each valid one, and
// returns the byte offset of the end of the last valid frame plus how many
// bytes after it were dropped as torn/corrupt. Damage after a valid prefix
// is tolerated; only apply itself can fail the replay.
func replayWAL(r io.Reader, size int64, apply func(walRecord) error) (valid int64, dropped int64, err error) {
	for {
		payload, rerr := readFrame(r, size-valid)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return valid, 0, nil
			}
			return valid, size - valid, nil // torn tail: keep the prefix
		}
		var rec walRecord
		if uerr := json.Unmarshal(payload, &rec); uerr != nil {
			// The CRC matched but the JSON does not parse: the record was
			// written corrupt, which no amount of replay can fix. Treat it
			// like a torn tail so the server still starts.
			return valid, size - valid, nil
		}
		if aerr := apply(rec); aerr != nil {
			return valid, 0, fmt.Errorf("durable: applying WAL record: %w", aerr)
		}
		valid += frameHeaderLen + int64(len(payload))
	}
}
