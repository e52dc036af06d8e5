package libstore

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestSnapshotHitsRoundTrip pins the hit-count persistence path: hits
// accumulated in a store survive SaveSnapshotFingerprint → LoadIntoChecked into a fresh
// store, so KeysByHits ordering (and the usage ledger's carried counts)
// are restored after a restart.
func TestSnapshotHitsRoundTrip(t *testing.T) {
	s := New(Options{Capacity: 64})
	for i := 0; i < 4; i++ {
		s.Put(synthEntry(i))
	}
	// Skewed access: key-0002 ×3, key-0001 ×2, key-0003 ×1, key-0000 ×0.
	for _, k := range []string{"key-0002", "key-0001", "key-0002", "key-0003", "key-0002", "key-0001"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("seed get %s missed", k)
		}
	}
	wantOrder := s.KeysByHits()
	wantHits := s.HitCounts()

	path := filepath.Join(t.TempDir(), "lib.snap")
	if err := s.SaveSnapshotFingerprint(path, FormatGob, ""); err != nil {
		t.Fatalf("save: %v", err)
	}

	// The on-disk entries must carry the live counters.
	lib, _, err := LoadSnapshotFingerprint(path)
	if err != nil {
		t.Fatalf("load library: %v", err)
	}
	for _, e := range lib.Entries {
		if e.Hits != wantHits[e.Key] {
			t.Fatalf("snapshot entry %s hits = %d, want %d", e.Key, e.Hits, wantHits[e.Key])
		}
	}

	// A fresh store restores the counters and the derived ordering.
	fresh := New(Options{Capacity: 64})
	if n, _, err := fresh.LoadIntoChecked(path, "", false); err != nil || n != 4 {
		t.Fatalf("load into: n=%d err=%v", n, err)
	}
	if got := fresh.HitCounts(); !reflect.DeepEqual(got, wantHits) {
		t.Fatalf("restored hit counts = %v, want %v", got, wantHits)
	}
	if got := fresh.KeysByHits(); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("restored KeysByHits = %v, want %v", got, wantOrder)
	}

	// A hit after restore keeps counting from the restored value.
	fresh.Get("key-0002")
	if got := fresh.HitCounts()["key-0002"]; got != wantHits["key-0002"]+1 {
		t.Fatalf("post-restore hits = %d, want %d", got, wantHits["key-0002"]+1)
	}
}

// TestSnapshotLegacyNoHits pins backward compatibility: a snapshot written
// from a plain Snapshot() (the pre-ledger wire shape, hit counts omitted)
// still loads, with every counter at zero.
func TestSnapshotLegacyNoHits(t *testing.T) {
	s := New(Options{Capacity: 64})
	for i := 0; i < 3; i++ {
		s.Put(synthEntry(i))
	}
	s.Get("key-0001")
	s.Get("key-0001")

	path := filepath.Join(t.TempDir(), "legacy.snap")
	// Snapshot() deliberately omits counters — the legacy encoding.
	if err := SaveLibraryFingerprint(s.Snapshot(), path, FormatJSON, ""); err != nil {
		t.Fatalf("save legacy: %v", err)
	}

	fresh := New(Options{Capacity: 64})
	if n, _, err := fresh.LoadIntoChecked(path, "", false); err != nil || n != 3 {
		t.Fatalf("load legacy: n=%d err=%v", n, err)
	}
	for k, v := range fresh.HitCounts() {
		if v != 0 {
			t.Fatalf("legacy load gave %s hits=%d, want 0", k, v)
		}
	}
}

// TestSnapshotWithHitsIsolation pins that SnapshotWithHits stamps copies:
// mutating the returned entries must not reach the live store.
func TestSnapshotWithHitsIsolation(t *testing.T) {
	s := New(Options{Capacity: 8})
	s.Put(synthEntry(0))
	s.Get("key-0000")

	lib := s.SnapshotWithHits()
	snap := lib.Entries["key-0000"]
	if len(lib.Entries) != 1 || snap == nil || snap.Hits != 1 {
		t.Fatalf("snapshot entries = %+v, want one entry with 1 hit", lib.Entries)
	}
	snap.Hits = 999
	snap.Iterations = -1

	got, ok := s.Get("key-0000")
	if !ok {
		t.Fatal("live entry vanished")
	}
	if got.Iterations != 10 {
		t.Fatalf("live entry mutated through snapshot: iterations=%d", got.Iterations)
	}
	if s.HitCounts()["key-0000"] != 2 {
		t.Fatalf("live hit counter = %d, want 2", s.HitCounts()["key-0000"])
	}
}
