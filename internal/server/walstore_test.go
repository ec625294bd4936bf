package server

import (
	"os"
	"testing"
)

func TestWALStoreRoundtrip(t *testing.T) {
	testStoreRoundtrip(t, func(t *testing.T) SessionStore {
		s, err := OpenWALStore(t.TempDir(), WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestWALStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Create(SessionRecord{ID: "s1", Algorithm: "rh", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Answer("s1", true); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash, then append through a fresh handle.
	b, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := b.Answer("s1", false); err != nil {
		t.Fatal(err)
	}
	recs, _, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Answers) != 2 || !recs[0].Answers[0] || recs[0].Answers[1] {
		t.Fatalf("folded record wrong after reopen: %+v", recs)
	}
}

func TestWALStoreAnswerUnknownSession(t *testing.T) {
	s, err := OpenWALStore(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.Answer("nope", true); err == nil {
		t.Fatal("answer for a session never created must fail")
	}
}

// TestWALStoreSnapshotCompaction: frequent snapshots with tiny segments
// keep the directory bounded, and a reopen rebuilds the identical state
// from snapshot + tail.
func TestWALStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALStore(dir, WALOptions{SnapshotEvery: 4, SegmentBytes: 160})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(SessionRecord{ID: "s1", Algorithm: "rh", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Answer("s1", i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 21 events, snapshot every 4: without compaction the 160-byte segments
	// would pile up past a dozen files.
	if len(entries) > 5 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("compaction left %d files: %v", len(entries), names)
	}

	r, err := OpenWALStore(dir, WALOptions{SnapshotEvery: 4, SegmentBytes: 160})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if r.Recovery().Snapshot == nil {
		t.Error("reopen found no snapshot after 21 events with SnapshotEvery=4")
	}
	recs, lastID, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if lastID != 1 || len(recs) != 1 || len(recs[0].Answers) != 20 {
		t.Fatalf("state after reopen: lastID=%d recs=%+v", lastID, recs)
	}
	for i, ans := range recs[0].Answers {
		if ans != (i%3 == 0) {
			t.Fatalf("answer %d flipped after snapshot round-trip", i)
		}
	}
}
