package libstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"accqoc/internal/precompile"
)

// TestSnapshotFingerprintRoundTrip pins the version-2 layout: a
// fingerprinted snapshot decodes to the same library plus its fingerprint,
// and an empty fingerprint produces a byte-identical version-1 file.
func TestSnapshotFingerprintRoundTrip(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 4; i++ {
		s.Put(synthEntry(i))
	}
	lib := s.Snapshot()
	const fp = "aqfp1:deadbeefdeadbeefdeadbeefdeadbeef"
	for _, format := range []Format{FormatGob, FormatJSON} {
		data, err := EncodeSnapshotFingerprint(lib, format, fp)
		if err != nil {
			t.Fatal(err)
		}
		got, gotFp, err := DecodeSnapshotFingerprint(data)
		if err != nil {
			t.Fatal(err)
		}
		if gotFp != fp {
			t.Fatalf("%s: fingerprint %q, want %q", format, gotFp, fp)
		}
		if len(got.Entries) != len(lib.Entries) {
			t.Fatalf("%s: %d entries, want %d", format, len(got.Entries), len(lib.Entries))
		}
	}
	// Empty fingerprint: version-1 output, byte-identical to the
	// version-1 layout (header, CRC-32 of the payload, payload), and it
	// decodes with an empty fingerprint. One entry keeps the gob payload
	// deterministic (a map's encoding order is not).
	one := precompile.NewLibrary()
	one.Entries[synthEntry(0).Key] = synthEntry(0)
	v1, err := EncodeSnapshotFingerprint(one, FormatGob, "")
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(one); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("AQLS"), snapshotVersion, byte(FormatGob), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(want[6:], crc32.ChecksumIEEE(payload.Bytes()))
	if want = append(want, payload.Bytes()...); !bytes.Equal(v1, want) {
		t.Fatalf("empty-fingerprint snapshot is not the version-1 layout: %d bytes (version %d), want %d", len(v1), v1[4], len(want))
	}
	if _, fp0, err := DecodeSnapshotFingerprint(v1); err != nil || fp0 != "" {
		t.Fatalf("v1 decode: fp=%q err=%v", fp0, err)
	}
}

// TestLoadIntoCheckedMismatch is the regression test for the silent
// wrong-device load: a snapshot stamped for one device+calibration must be
// rejected by a store expecting another, and the force escape hatch must
// load it anyway.
func TestLoadIntoCheckedMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.snap")
	src := New(Options{})
	for i := 0; i < 3; i++ {
		src.Put(synthEntry(i))
	}
	if err := src.SaveSnapshotFingerprint(path, FormatGob, "aqfp1:device-A"); err != nil {
		t.Fatal(err)
	}

	// Mismatch: nothing loads, the error names both fingerprints, and the
	// snapshot's own fingerprint is reported for logging.
	dst := New(Options{})
	n, got, err := dst.LoadIntoChecked(path, "aqfp1:device-B", false)
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("mismatch err = %v, want ErrFingerprint", err)
	}
	if n != 0 || dst.Len() != 0 {
		t.Fatalf("mismatch loaded %d entries (store has %d), want 0", n, dst.Len())
	}
	if got != "aqfp1:device-A" {
		t.Fatalf("reported fingerprint %q", got)
	}

	// Matching fingerprint loads.
	match := New(Options{})
	if n, _, err := match.LoadIntoChecked(path, "aqfp1:device-A", false); err != nil || n != 3 {
		t.Fatalf("match load: n=%d err=%v", n, err)
	}

	// Force overrides the mismatch (the -lib-force escape hatch).
	forced := New(Options{})
	if n, _, err := forced.LoadIntoChecked(path, "aqfp1:device-B", true); err != nil || n != 3 {
		t.Fatalf("forced load: n=%d err=%v", n, err)
	}

	// A legacy (unfingerprinted) snapshot cannot be checked and loads.
	legacyPath := filepath.Join(dir, "legacy.snap")
	if err := src.SaveSnapshotFingerprint(legacyPath, FormatGob, ""); err != nil {
		t.Fatal(err)
	}
	legacy := New(Options{})
	if n, fp, err := legacy.LoadIntoChecked(legacyPath, "aqfp1:device-B", false); err != nil || n != 3 || fp != "" {
		t.Fatalf("legacy load: n=%d fp=%q err=%v", n, fp, err)
	}

	// Truncating inside the fingerprint section is corruption, not a
	// mismatch.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSnapshotFingerprint(data[:headerLen+1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated fingerprint err = %v, want ErrCorrupt", err)
	}
}

// TestKeysByHits pins the most-requested-first ordering the calibration
// roll trains in.
func TestKeysByHits(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 4; i++ {
		s.Put(synthEntry(i))
	}
	hit := func(key string, n int) {
		for i := 0; i < n; i++ {
			if _, ok := s.Get(key); !ok {
				t.Fatalf("key %s missing", key)
			}
		}
	}
	hit("key-0002", 5)
	hit("key-0000", 2)
	// GetOrTrain hits count too.
	if _, outcome, err := s.GetOrTrain("key-0000", nil); err != nil || outcome != OutcomeHit {
		t.Fatalf("GetOrTrain hit: outcome=%v err=%v", outcome, err)
	}
	got := s.KeysByHits()
	want := []string{"key-0002", "key-0000", "key-0001", "key-0003"}
	if len(got) != len(want) {
		t.Fatalf("KeysByHits returned %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KeysByHits = %v, want %v", got, want)
		}
	}
	counts := s.HitCounts()
	if counts["key-0002"] != 5 || counts["key-0000"] != 3 || counts["key-0001"] != 0 {
		t.Fatalf("HitCounts = %v", counts)
	}
}
