package durable

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// replayAll replays data and returns the records applied.
func replayAll(t *testing.T, data []byte) (recs []walRecord, valid, dropped int64) {
	t.Helper()
	valid, dropped, err := replayWAL(bytes.NewReader(data), int64(len(data)), func(r walRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay failed with an apply that never fails: %v", err)
	}
	return recs, valid, dropped
}

// FuzzReplayWAL runs WAL replay over arbitrary bytes, the shape a crash
// or a damaged disk can leave behind. Replay must never panic, must
// account for every input byte as either valid or dropped, and its valid
// prefix must be a clean log: replaying it again applies the same records
// and drops nothing. The seed corpus (testdata/fuzz/FuzzReplayWAL) holds a
// clean log, torn headers and payloads, a CRC mismatch, a CRC-valid frame
// of corrupt JSON, an insane length field and a length past the end of
// the input.
func FuzzReplayWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, dropped := replayAll(t, data)
		if valid < 0 || dropped < 0 || valid+dropped != int64(len(data)) {
			t.Fatalf("valid %d + dropped %d != input length %d", valid, dropped, len(data))
		}
		again, valid2, dropped2 := replayAll(t, data[:valid])
		if valid2 != valid || dropped2 != 0 {
			t.Fatalf("valid prefix of %d bytes replayed as %d valid, %d dropped", valid, valid2, dropped2)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("valid prefix replayed %d records, the full input %d", len(again), len(recs))
		}
	})
}

// TestReplayLengthPastEOF: a lone header whose length field claims
// 16,711,680 bytes is a torn tail, dropped without allocating a buffer
// for bytes the input does not hold.
func TestReplayLengthPastEOF(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xFF0000)
	const runs = 10
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < runs; i++ {
		if recs, valid, dropped := replayAll(t, hdr[:]); len(recs) != 0 || valid != 0 || dropped != frameHeaderLen {
			t.Fatalf("replay = %d records, valid %d, dropped %d; want 0, 0, %d", len(recs), valid, dropped, frameHeaderLen)
		}
	}
	runtime.ReadMemStats(&ms)
	if perRun := (ms.TotalAlloc - before) / runs; perRun >= 64<<10 {
		t.Errorf("replay allocated %d B per run, want < 64 KiB", perRun)
	}
}
