package experiments

import (
	"bytes"
	"strings"
	"testing"

	"accqoc/internal/grape"
	"accqoc/internal/precompile"
	"accqoc/internal/similarity"
	"accqoc/internal/workload"
)

// tinyScale shrinks everything to smoke-test the harness paths quickly.
func tinyScale() Scale {
	s := SmallScale()
	s.Name = "tiny"
	s.ProfilePrograms = 2
	s.TargetPrograms = 2
	s.ProgramGates = [2]int{30, 60}
	s.AccelGroups = 4
	s.Fig13Groups = 3
	s.Fig14Gates = []int{50, 100}
	s.Fig15Programs = 1
	s.Fig15Gates = 12
	s.Grape = grape.Options{TargetInfidelity: 1e-2, MaxIterations: 200, Restarts: -1, Seed: 3}
	s.Search1Q = grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 30}
	s.Search2Q = grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 300}
	return s
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"map2b2l", "swap2b4l", "decomposed to 3 CX"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	out := buf.String()
	for _, want := range []string{"cm152a", "qft_16", "all"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, out)
		}
	}
	rows, avg := Table2Rows()
	if len(rows) != 6 {
		t.Fatal("Table2Rows should have 6 programs")
	}
	if avg["cx"] < 0.3 {
		t.Fatalf("cx average = %v", avg["cx"])
	}
}

func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig5(&buf)
	if len(rows) != 6 {
		t.Fatalf("Fig5 rows = %d", len(rows))
	}
	if !strings.Contains(buf.String(), "20%") {
		t.Fatalf("Fig5 output missing the 20%% inflation:\n%s", buf.String())
	}
}

func TestFig11Tiny(t *testing.T) {
	sc := tinyScale()
	sc.Fig11Programs = 2
	var buf bytes.Buffer
	res, err := Fig11(&buf, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Programs) != 2 || len(res.Before) != 2 || len(res.After) != 2 {
		t.Fatalf("shape: %+v", res)
	}
	for i := range res.Programs {
		if res.Before[i] < 0 || res.After[i] < 0 {
			t.Fatal("negative crosstalk metric")
		}
	}
	// The average reduction over a *large* sample is positive (see the
	// mapping package test and Fig. 11 in EXPERIMENTS.md); two tiny
	// programs only smoke-test the path.
}

func TestFig14Tiny(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Fig14(&buf, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Sub-linear growth: unique groups grow slower than gates.
	gateRatio := float64(pts[1].Gates) / float64(pts[0].Gates)
	groupRatio := float64(pts[1].UniqueGroups) / float64(pts[0].UniqueGroups)
	if groupRatio >= gateRatio {
		t.Errorf("unique groups grew as fast as gates: %v vs %v (paper: sub-linear)",
			groupRatio, gateRatio)
	}
}

func TestFig7Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses")
	}
	var buf bytes.Buffer
	res, err := Fig7(&buf, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfiledUnique == 0 {
		t.Fatal("no profiled groups")
	}
	if res.Average < 0.2 {
		t.Errorf("coverage average %.2f implausibly low for same-mix programs", res.Average)
	}
	t.Logf("tiny coverage average: %.1f%% with %d profiled groups", 100*res.Average, res.ProfiledUnique)
}

func TestScalesAreSane(t *testing.T) {
	small, full := SmallScale(), FullScale()
	if small.ProfilePrograms >= full.ProfilePrograms {
		t.Fatal("full scale must profile more programs")
	}
	if full.Grape.TargetInfidelity > small.Grape.TargetInfidelity {
		t.Fatal("full scale must use tighter fidelity")
	}
	if len(small.fig12Programs()) == 0 || len(full.fig12Programs()) != 6 {
		t.Fatal("fig12 program sets wrong")
	}
}

func TestDeviceFor(t *testing.T) {
	small := workload.QFT(5)
	if dev := DeviceFor(small.Circuit); dev.Name != "ibmq-melbourne" {
		t.Fatalf("qft_5 device = %s", dev.Name)
	}
	big := workload.QFT(16)
	if dev := DeviceFor(big.Circuit); dev.NumQubits < 16 {
		t.Fatalf("qft_16 device too small: %s", dev.Name)
	}
}

func TestAccelArmString(t *testing.T) {
	a := precompile.AccelArm{Function: similarity.TraceFid, Iterations: 100, Reduction: 0.25}
	s := a.String()
	if !strings.Contains(s, "fidelity1") || !strings.Contains(s, "25.0%") {
		t.Fatalf("String = %q", s)
	}
	cold := precompile.AccelArm{Iterations: 50}
	if !strings.Contains(cold.String(), "cold") {
		t.Fatalf("cold String = %q", cold.String())
	}
}
