package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accqoc"
	"accqoc/internal/grouping"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
)

// TestGroupLineDepth: two parallel H gates then a CX form one map2b4l
// group of three gates in two layers; -v must print the layer count as
// the depth, not the gate count.
func TestGroupLineDepth(t *testing.T) {
	prog, err := qasm.Parse(`OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
h q[1];
cx q[0],q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	comp := accqoc.New(accqoc.Options{Device: topology.Linear(2), Policy: grouping.Map2b4l})
	prep, err := comp.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prep.Grouping.Groups); n != 1 {
		t.Fatalf("groups = %d, want 1", n)
	}
	if got := groupLine(0, prep.Grouping.Groups[0]); !strings.HasSuffix(got, "3 gates, depth 2") {
		t.Fatalf("groupLine = %q, want 3 gates, depth 2", got)
	}
}

// TestLoadLibraryRefusesPulselessEntry: a -lib file whose entry for the
// program's group carries no pulse is refused as a corrupt snapshot
// before anything compiles against it (it used to load and then panic in
// Compile), whether it is a bare JSON library, a snapshot with a null
// entry or a snapshot with a pulse-less one.
func TestLoadLibraryRefusesPulselessEntry(t *testing.T) {
	prog, err := qasm.Parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
	if err != nil {
		t.Fatal(err)
	}
	comp := accqoc.New(accqoc.Options{Device: topology.Linear(2), Policy: grouping.Map2b4l})
	plan, err := comp.PlanGroups(prog)
	if err != nil {
		t.Fatal(err)
	}
	key := plan.Keys[0]
	bare, err := json.Marshal(map[string]map[string]any{"entries": {key: nil}})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(e *precompile.Entry) []byte {
		lib := precompile.NewLibrary()
		lib.Entries[key] = e
		data, err := libstore.EncodeSnapshotFingerprint(lib, libstore.FormatJSON, "")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"bare-json":  bare,
		"null-entry": snapshot(nil),
		"no-pulse":   snapshot(&precompile.Entry{Key: key, NumQubits: 2, LatencyNs: 100}),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := loadLibrary(comp, path)
		if err == nil || !strings.Contains(err.Error(), "corrupt snapshot") {
			t.Fatalf("%s: loaded %d entries, error %v; want a corrupt snapshot error", name, n, err)
		}
		if len(comp.Library().Entries) != 0 {
			t.Fatalf("%s: a refused library reached the compiler", name)
		}
	}
	if n, err := loadLibrary(comp, filepath.Join(dir, "missing")); n != 0 || err != nil {
		t.Fatalf("missing library: %d entries, error %v; want an empty start", n, err)
	}
}
