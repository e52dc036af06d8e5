package main

import (
	"strings"
	"testing"

	"accqoc"
	"accqoc/internal/grouping"
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
