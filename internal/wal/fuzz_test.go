package wal_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ist/internal/wal"
)

// FuzzWALRecover damages a closed log the way a crash or a bad sector can —
// arbitrary bytes overwritten in, or appended to, the final segment or the
// snapshot — and checks recovery against what the test wrote:
//
//   - Open never panics or fails;
//   - every record that lies wholly before the first damaged byte comes
//     back intact and in order, ahead of anything recovered from the damage;
//   - the snapshot comes back exactly when the damaged file is still one
//     checksum-valid frame, and then with that frame's payload;
//   - a second Open recovers the same snapshot and records and reports no
//     new damage, so the first Open's repairs are durable.
func FuzzWALRecover(f *testing.F) {
	f.Add(uint8(5), uint8(0), uint8(0), false, uint16(7), []byte{0x01, 0x02, 0x03})
	f.Add(uint8(6), uint8(2), uint8(40), false, uint16(0), []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint8(4), uint8(3), uint8(0), true, uint16(9), []byte("xx"))
	f.Add(uint8(3), uint8(3), uint8(20), true, uint16(500), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(11), uint8(0), uint8(64), false, uint16(30), []byte{0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, n, snapAt, segBytes uint8, toSnap bool, off uint16, damage []byte) {
		nrec := 1 + int(n%12)
		at := int(snapAt) % (nrec + 1) // snapshot after this many records; 0 = none
		opt := wal.Options{Sync: wal.SyncNever, SegmentBytes: int64(segBytes)}
		dir := t.TempDir()

		l, _ := mustOpen(t, dir, opt)
		var state []byte
		var after [][]byte // the records appended after the snapshot
		for i := 0; i < nrec; i++ {
			p := []byte(fmt.Sprintf("record-%02d|%s", i, strings.Repeat("x", i%5)))
			if err := l.Append(p); err != nil {
				t.Fatal(err)
			}
			after = append(after, p)
			if i+1 == at {
				state = []byte(fmt.Sprintf("state after %d records", at))
				if err := l.Snapshot(state); err != nil {
					t.Fatal(err)
				}
				after = nil
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		seg := lastFile(t, dir, "seg-", ".wal")
		target := seg
		if toSnap && state != nil {
			target = lastFile(t, dir, "snap-", ".snap")
		}
		data, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		o := int(off) % (len(data) + 1)
		protected := len(after)
		wantSnap := state
		damaged := overwrite(data, o, damage)
		if target == seg {
			protected -= framesEndingAfter(data, o)
		} else {
			wantSnap = framePayload(damaged)
		}
		if err := os.WriteFile(target, damaged, 0o644); err != nil {
			t.Fatal(err)
		}

		l1, rec1 := mustOpen(t, dir, opt)
		if err := l1.Close(); err != nil {
			t.Fatal(err)
		}
		if !sameBytes(rec1.Snapshot, wantSnap) {
			t.Fatalf("snapshot %q, want %q", rec1.Snapshot, wantSnap)
		}
		if state != nil && wantSnap == nil && rec1.DiscardedSnapshots != 1 {
			t.Fatalf("damaged snapshot not reported: %+v", rec1)
		}
		if len(rec1.Records) < protected {
			t.Fatalf("recovered %d records, want at least the %d before the damage", len(rec1.Records), protected)
		}
		for i := 0; i < protected; i++ {
			if !bytes.Equal(rec1.Records[i], after[i]) {
				t.Fatalf("record %d = %q, want %q", i, rec1.Records[i], after[i])
			}
		}

		l2, rec2 := mustOpen(t, dir, opt)
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if !sameBytes(rec2.Snapshot, rec1.Snapshot) || len(rec2.Records) != len(rec1.Records) {
			t.Fatalf("second open recovered %d records and snapshot %q, first %d and %q",
				len(rec2.Records), rec2.Snapshot, len(rec1.Records), rec1.Snapshot)
		}
		for i := range rec1.Records {
			if !bytes.Equal(rec2.Records[i], rec1.Records[i]) {
				t.Fatalf("second open: record %d = %q, first %q", i, rec2.Records[i], rec1.Records[i])
			}
		}
		if rec2.TruncatedTail || rec2.QuarantinedSegments > 0 || rec2.DiscardedSnapshots > 0 ||
			rec2.CorruptRecords != rec1.CorruptRecords {
			t.Fatalf("second open found new damage: %+v after %+v", rec2, rec1)
		}
	})
}

// lastFile returns the path of the highest-sequence file named
// <prefix><seq><suffix> in dir (sequence numbers are zero-padded, so the
// name order is the sequence order).
func lastFile(t *testing.T, dir, prefix, suffix string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			last = name
		}
	}
	if last == "" {
		t.Fatalf("no %s*%s file in %s", prefix, suffix, dir)
	}
	return filepath.Join(dir, last)
}

// overwrite returns a copy of data with b written at off, growing it when b
// runs past the end (off == len(data) appends).
func overwrite(data []byte, off int, b []byte) []byte {
	out := append([]byte(nil), data...)
	if end := off + len(b); end > len(out) {
		out = append(out, make([]byte, end-len(out))...)
	}
	copy(out[off:], b)
	return out
}

// framesEndingAfter counts the frames of an undamaged segment that end
// past byte off: the records a write at off can reach.
func framesEndingAfter(seg []byte, off int) int {
	n := 0
	for start := 0; start < len(seg); {
		end := start + 8 + int(binary.LittleEndian.Uint32(seg[start:start+4]))
		if end > off {
			n++
		}
		start = end
	}
	return n
}

// framePayload returns the payload when data is exactly one frame
// (little-endian length, CRC32C of the payload, payload) within MaxRecord,
// and nil otherwise: what a snapshot file must be to be trusted.
func framePayload(data []byte) []byte {
	if len(data) < 8 {
		return nil
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > wal.MaxRecord || int(n) != len(data)-8 {
		return nil
	}
	payload := data[8:]
	if crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil
	}
	return payload
}

// sameBytes is bytes.Equal that also tells nil (no snapshot) from empty.
func sameBytes(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}
