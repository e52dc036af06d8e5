package libstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"accqoc/internal/precompile"
)

// Snapshot file layout (version 1):
//
//	4 bytes  magic "AQLS"
//	1 byte   snapshot version
//	1 byte   payload format (FormatGob | FormatJSON)
//	4 bytes  IEEE CRC-32 of the payload, little-endian
//	payload  the encoded precompile.Library
//
// Version 2 carries a device+calibration fingerprint between the header
// and the payload (2-byte little-endian length, then the fingerprint
// bytes); its CRC covers everything after the header, fingerprint
// included. A version-2 snapshot is written whenever the caller supplies a
// fingerprint; with an empty fingerprint the output is byte-identical to
// version 1, and version-1 files remain loadable (they simply carry no
// identity to check).
//
// The fingerprint matters as much as the checksum: a snapshot is a cache
// of GRAPE solutions valid only for the exact device Hamiltonian and
// calibration it was trained under. Loading one into a server configured
// for a different device — or the same device after a recalibration —
// would silently serve pulses that drive the wrong unitaries. LoadIntoChecked
// rejects that mismatch instead (with an explicit force escape hatch).
//
// The checksum matters: random corruption inside gob-encoded float64
// amplitudes can decode into a structurally valid library with silently
// wrong pulses, so structural validation alone cannot catch it.
//
// Saves are atomic: the payload is written to a temp file in the target
// directory, synced, and renamed over the destination, so a crash mid-save
// never corrupts an existing snapshot.

// Format selects the snapshot payload encoding.
type Format byte

const (
	// FormatGob is the compact binary encoding (via pulse.GobEncode's
	// versioned layout). Preferred for large libraries.
	FormatGob Format = 1
	// FormatJSON is the human-inspectable encoding: the payload is the
	// library's JSON.
	FormatJSON Format = 2
)

func (f Format) String() string {
	switch f {
	case FormatGob:
		return "gob"
	case FormatJSON:
		return "json"
	default:
		return fmt.Sprintf("format(%d)", byte(f))
	}
}

var snapshotMagic = [4]byte{'A', 'Q', 'L', 'S'}

const (
	snapshotVersion = 1
	// snapshotVersionFingerprint adds the device+calibration fingerprint
	// section after the header.
	snapshotVersionFingerprint = 2
)

// ErrCorrupt tags snapshot decode failures; errors.Is(err, ErrCorrupt)
// distinguishes a damaged file from an absent one.
var ErrCorrupt = errors.New("libstore: corrupt snapshot")

// ErrFingerprint tags a snapshot whose device+calibration fingerprint does
// not match the store it is being loaded into: the pulses were trained for
// different physics and would silently drive wrong unitaries.
var ErrFingerprint = errors.New("libstore: snapshot fingerprint mismatch")

// headerLen is magic + version + format + crc32.
const headerLen = 4 + 1 + 1 + 4

// maxFingerprintLen bounds the fingerprint section (a 2-byte length field).
const maxFingerprintLen = 1<<16 - 1

// EncodeSnapshotFingerprint renders a library in the versioned snapshot
// layout carrying the given device+calibration fingerprint. An empty
// fingerprint produces a version-1 file; a non-empty one a version-2 file.
func EncodeSnapshotFingerprint(lib *precompile.Library, format Format, fingerprint string) ([]byte, error) {
	if len(fingerprint) > maxFingerprintLen {
		return nil, fmt.Errorf("libstore: fingerprint %d bytes exceeds %d", len(fingerprint), maxFingerprintLen)
	}
	var payload bytes.Buffer
	switch format {
	case FormatGob:
		if err := gob.NewEncoder(&payload).Encode(lib); err != nil {
			return nil, fmt.Errorf("libstore: gob encode: %w", err)
		}
	case FormatJSON:
		data, err := json.Marshal(lib)
		if err != nil {
			return nil, fmt.Errorf("libstore: json encode: %w", err)
		}
		payload.Write(data)
	default:
		return nil, fmt.Errorf("libstore: unknown snapshot format %d", format)
	}
	version := byte(snapshotVersion)
	var tail []byte
	if fingerprint != "" {
		version = snapshotVersionFingerprint
		tail = make([]byte, 2, 2+len(fingerprint)+payload.Len())
		binary.LittleEndian.PutUint16(tail, uint16(len(fingerprint)))
		tail = append(tail, fingerprint...)
	}
	tail = append(tail, payload.Bytes()...)
	out := make([]byte, headerLen, headerLen+len(tail))
	copy(out, snapshotMagic[:])
	out[4] = version
	out[5] = byte(format)
	binary.LittleEndian.PutUint32(out[6:10], crc32.ChecksumIEEE(tail))
	return append(out, tail...), nil
}

// DecodeSnapshotFingerprint parses a snapshot, returning the library and
// the embedded device+calibration fingerprint ("" for version-1 files,
// which predate fingerprinting).
func DecodeSnapshotFingerprint(data []byte) (*precompile.Library, string, error) {
	if len(data) < headerLen {
		return nil, "", fmt.Errorf("%w: %d bytes, want ≥ %d", ErrCorrupt, len(data), headerLen)
	}
	if !bytes.Equal(data[:4], snapshotMagic[:]) {
		return nil, "", fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	version := data[4]
	if version != snapshotVersion && version != snapshotVersionFingerprint {
		return nil, "", fmt.Errorf("%w: unsupported version %d (want %d or %d)",
			ErrCorrupt, version, snapshotVersion, snapshotVersionFingerprint)
	}
	format := Format(data[5])
	tail := data[headerLen:]
	if want, got := binary.LittleEndian.Uint32(data[6:10]), crc32.ChecksumIEEE(tail); want != got {
		return nil, "", fmt.Errorf("%w: payload checksum %08x, header says %08x", ErrCorrupt, got, want)
	}
	fingerprint := ""
	payload := tail
	if version == snapshotVersionFingerprint {
		if len(tail) < 2 {
			return nil, "", fmt.Errorf("%w: truncated fingerprint section", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint16(tail))
		if len(tail) < 2+n {
			return nil, "", fmt.Errorf("%w: fingerprint length %d exceeds snapshot", ErrCorrupt, n)
		}
		fingerprint = string(tail[2 : 2+n])
		payload = tail[2+n:]
	}
	lib := precompile.NewLibrary()
	switch format {
	case FormatGob:
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(lib); err != nil {
			return nil, "", fmt.Errorf("%w: gob payload: %v", ErrCorrupt, err)
		}
	case FormatJSON:
		if err := json.Unmarshal(payload, lib); err != nil {
			return nil, "", fmt.Errorf("%w: json payload: %v", ErrCorrupt, err)
		}
	default:
		return nil, "", fmt.Errorf("%w: unknown format byte %d", ErrCorrupt, byte(format))
	}
	for key, e := range lib.Entries {
		if e == nil || e.Pulse == nil {
			return nil, "", fmt.Errorf("%w: entry %q has no pulse", ErrCorrupt, key)
		}
		if e.Key != key {
			// The map key is the content address; an entry filed under a
			// different key would be silently re-keyed by Store.AddLibrary
			// and served for the wrong group.
			return nil, "", fmt.Errorf("%w: entry filed under %q carries key %q", ErrCorrupt, key, e.Key)
		}
		if err := e.Pulse.Validate(); err != nil {
			return nil, "", fmt.Errorf("%w: entry %q: %v", ErrCorrupt, key, err)
		}
		e.Seal()
	}
	return lib, fingerprint, nil
}

// SaveSnapshotFingerprint atomically writes the store's current entries to
// path, stamped with the device+calibration fingerprint they were trained
// under and with per-entry hit counts.
func (s *Store) SaveSnapshotFingerprint(path string, format Format, fingerprint string) error {
	return SaveLibraryFingerprint(s.SnapshotWithHits(), path, format, fingerprint)
}

// SaveLibraryFingerprint atomically writes a fingerprinted library
// snapshot to path.
func SaveLibraryFingerprint(lib *precompile.Library, path string, format Format, fingerprint string) error {
	data, err := EncodeSnapshotFingerprint(lib, format, fingerprint)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("libstore: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("libstore: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("libstore: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("libstore: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("libstore: snapshot rename: %w", err)
	}
	return nil
}

// LoadSnapshotFingerprint reads a snapshot file into a fresh library and
// returns the embedded fingerprint ("" for pre-fingerprint files).
func LoadSnapshotFingerprint(path string) (*precompile.Library, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	lib, fp, err := DecodeSnapshotFingerprint(data)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return lib, fp, nil
}

// LoadIntoChecked reads a snapshot file and merges its entries into the
// store after verifying its device+calibration fingerprint against want.
// A mismatch returns ErrFingerprint (wrapped) and loads nothing — the
// snapshot was trained for different physics and its pulses would silently
// drive wrong unitaries — unless force is set, which loads anyway (the
// operator's -lib-force escape hatch). Legacy snapshots without a
// fingerprint, or an empty want, skip the check. The snapshot's own
// fingerprint is returned either way so callers can log it.
func (s *Store) LoadIntoChecked(path, want string, force bool) (int, string, error) {
	lib, got, err := LoadSnapshotFingerprint(path)
	if err != nil {
		return 0, "", err
	}
	if want != "" && got != "" && got != want && !force {
		return 0, got, fmt.Errorf("%w: %s was trained under %s, this server runs %s",
			ErrFingerprint, path, got, want)
	}
	s.AddLibrary(lib)
	return len(lib.Entries), got, nil
}
