package libstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// sealSnapshot wraps a payload in the snapshot header the way
// EncodeSnapshotFingerprint does, with a correct CRC: version 1 for an
// empty fingerprint, else version 2 with its length-prefixed fingerprint
// section. The format byte is written as given, known or not.
func sealSnapshot(format byte, fingerprint string, payload []byte) []byte {
	version := byte(snapshotVersion)
	var tail []byte
	if fingerprint != "" {
		version = snapshotVersionFingerprint
		tail = binary.LittleEndian.AppendUint16(nil, uint16(len(fingerprint)))
		tail = append(tail, fingerprint...)
	}
	tail = append(tail, payload...)
	out := append(snapshotMagic[:], version, format, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[6:10], crc32.ChecksumIEEE(tail))
	return append(out, tail...)
}

// TestDecodeSnapshotRejectsNonFinitePulse checks that a gob snapshot whose
// pulse holds a NaN amplitude, or has an infinite time step, is refused as
// corrupt. The pulse's binary layout carries any float64 bit pattern and
// the CRC is correct, so only the pulse check can stop such an entry
// before it reaches the library.
func TestDecodeSnapshotRejectsNonFinitePulse(t *testing.T) {
	// Sentinels whose little-endian bit patterns occur once in the gob
	// payload: gob writes the entry's own float fields in its own
	// byte-reversed form, and the pulse's floats verbatim.
	const amp, dt = 0.0123456789, 1.23456789
	e := synthEntry(0)
	e.Pulse.Dt = dt
	e.Pulse.Amps[1][5] = amp
	s := New(Options{})
	s.Put(e)
	s.Put(synthEntry(1))
	valid, err := EncodeSnapshotFingerprint(s.Snapshot(), FormatGob, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSnapshotFingerprint(valid); err != nil {
		t.Fatalf("unmodified snapshot: %v", err)
	}
	for _, c := range []struct {
		name      string
		old, repl float64
	}{
		{"nan-amplitude", amp, math.NaN()},
		{"inf-dt", dt, math.Inf(1)},
	} {
		old := binary.LittleEndian.AppendUint64(nil, math.Float64bits(c.old))
		if n := bytes.Count(valid, old); n != 1 {
			t.Fatalf("%s: sentinel occurs %d times in the payload, want 1", c.name, n)
		}
		repl := binary.LittleEndian.AppendUint64(nil, math.Float64bits(c.repl))
		payload := bytes.Replace(valid[headerLen:], old, repl, 1)
		if _, _, err := DecodeSnapshotFingerprint(sealSnapshot(byte(FormatGob), "", payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestDecodeSnapshotRejectsInvalidJSONPulse checks the JSON path: a pulse
// whose time step is not positive is refused as corrupt by the pulse's own
// UnmarshalJSON, the one validation a decoded pulse gets.
func TestDecodeSnapshotRejectsInvalidJSONPulse(t *testing.T) {
	s := New(Options{})
	s.Put(synthEntry(0))
	s.Put(synthEntry(1))
	valid, err := EncodeSnapshotFingerprint(s.Snapshot(), FormatJSON, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSnapshotFingerprint(valid); err != nil {
		t.Fatalf("unmodified snapshot: %v", err)
	}
	old := []byte(`"dt_ns":2`)
	if n := bytes.Count(valid, old); n != 2 {
		t.Fatalf("time step occurs %d times in the payload, want 2", n)
	}
	for _, repl := range []string{`"dt_ns":0`, `"dt_ns":-2`} {
		payload := bytes.Replace(valid[headerLen:], old, []byte(repl), 1)
		if _, _, err := DecodeSnapshotFingerprint(sealSnapshot(byte(FormatJSON), "", payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", repl, err)
		}
	}
}

// maxFuzzSnapshot caps the fuzzed fingerprint plus payload.
const maxFuzzSnapshot = 64 << 10

// FuzzSnapshotDecode feeds mutated payloads, format bytes and fingerprints
// to the snapshot decoder inside a valid header and CRC, so that mutations
// reach the gob and JSON decoders and the per-entry checks instead of
// stopping at the checksum. The decoder must return an error or a library
// whose every entry has a valid pulse and is filed under its own key; it
// must never panic.
func FuzzSnapshotDecode(f *testing.F) {
	const seedFingerprint = "device:fuzz"
	s := New(Options{})
	s.Put(synthEntry(0))
	s.Put(synthEntry(1))
	for _, format := range []Format{FormatGob, FormatJSON} {
		data, err := EncodeSnapshotFingerprint(s.Snapshot(), format, seedFingerprint)
		if err != nil {
			f.Fatal(err)
		}
		payload := data[headerLen+2+len(seedFingerprint):]
		f.Add(byte(format), seedFingerprint, payload)
		f.Add(byte(format), "", payload)
	}
	f.Fuzz(func(t *testing.T, format byte, fingerprint string, payload []byte) {
		if len(fingerprint)+len(payload) > maxFuzzSnapshot || len(fingerprint) > maxFingerprintLen {
			return
		}
		lib, fp, err := DecodeSnapshotFingerprint(sealSnapshot(format, fingerprint, payload))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if fp != fingerprint {
			t.Fatalf("fingerprint %q decoded as %q", fingerprint, fp)
		}
		for key, e := range lib.Entries {
			if e == nil || e.Pulse == nil {
				t.Fatalf("entry %q admitted without a pulse", key)
			}
			if e.Key != key {
				t.Fatalf("entry filed under %q carries key %q", key, e.Key)
			}
			if err := e.Pulse.Validate(); err != nil {
				t.Fatalf("entry %q admitted with an invalid pulse: %v", key, err)
			}
		}
	})
}
