package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func quickEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(Quick(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(Scale{Stones: 0}, nil); err == nil {
		t.Error("NewEnv with 0 stones succeeded")
	}
}

func TestScalesAreOrdered(t *testing.T) {
	if Quick().Stones >= Default().Stones || Default().Stones >= Large().Stones {
		t.Error("scales are not increasing")
	}
}

func TestE1DatabaseSizes(t *testing.T) {
	tbl := E1DatabaseSizes(24)
	if tbl.Rows() != 24 {
		t.Fatalf("rows = %d, want 24", tbl.Rows())
	}
	// Row for 13 stones carries the paper's exact position count.
	if got := tbl.Cell(12, 1); got != "2,496,144" {
		t.Errorf("13-stone positions = %q", got)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "600 MByte") {
		t.Error("E1 does not mention the 600 MByte crossing")
	}
}

func TestE2Sequential(t *testing.T) {
	env := quickEnv(t)
	tbl, err := E2Sequential(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() < 3 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "WARNING") {
		t.Errorf("E2 reports engine disagreement:\n%s", sb.String())
	}
}

func TestE3SpeedupShape(t *testing.T) {
	env := quickEnv(t)
	tbl, err := E3Speedup(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != len(env.Scale.Procs) {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// Speedups must increase with processor count on this compute-heavy
	// calibration.
	prev := 0.0
	for r := 0; r < tbl.Rows(); r++ {
		s, err := strconv.ParseFloat(tbl.Cell(r, 2), 64)
		if err != nil {
			t.Fatalf("row %d speedup %q: %v", r, tbl.Cell(r, 2), err)
		}
		if s <= prev {
			t.Errorf("speedup not increasing: row %d has %.2f after %.2f", r, s, prev)
		}
		prev = s
	}
	// Largest run should be at least half-efficient at the Quick scale.
	eff, _ := strconv.ParseFloat(tbl.Cell(tbl.Rows()-1, 3), 64)
	if eff < 0.5 {
		t.Errorf("efficiency at max procs = %.2f, want >= 0.5", eff)
	}
}

func TestE4CombiningShape(t *testing.T) {
	env := quickEnv(t)
	tbl, err := E4Combining(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != len(env.Scale.CombineSizes) {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// The naive run (first row, combine=1) must be the slowest.
	naive, _ := strconv.ParseFloat(tbl.Cell(0, 2), 64)
	for r := 1; r < tbl.Rows(); r++ {
		s, _ := strconv.ParseFloat(tbl.Cell(r, 2), 64)
		if s > naive {
			t.Errorf("combine=%s slower than naive (%.2f > %.2f)", tbl.Cell(r, 0), s, naive)
		}
	}
	if naive < 2 {
		t.Errorf("naive slowdown %.2f, want >= 2 (combining should matter)", naive)
	}
}

func TestE5Traffic(t *testing.T) {
	env := quickEnv(t)
	tbl, err := E5Traffic(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() < 10 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
}

func TestE6Memory(t *testing.T) {
	env := quickEnv(t)
	tables, err := E6Memory(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	var sb strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	// The 23-stone uniprocessor row must exceed 600 MiB, reproducing the
	// paper's infeasibility claim.
	if !strings.Contains(out, "GiB") {
		t.Errorf("extrapolation shows no GiB-scale databases:\n%s", out)
	}
}

func TestA1Partition(t *testing.T) {
	env := quickEnv(t)
	tbl, err := A1Partition(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
}

func TestA2Interconnect(t *testing.T) {
	env := quickEnv(t)
	tbl, err := A2Interconnect(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
}

func TestA3Termination(t *testing.T) {
	env := quickEnv(t)
	tbl, err := A3Termination(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != len(env.Scale.Procs) {
		t.Fatalf("rows = %d", tbl.Rows())
	}
}

// TestRunAllQuick regenerates every table at test scale and compares the
// rendered text with the pinned file byte for byte: each table is a
// function of the games and the cost model, so any difference is a change
// in virtual time, message counts, sizes or outcomes.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness skipped in -short mode")
	}
	var sb strings.Builder
	jsonPath := filepath.Join(t.TempDir(), "tables.json")
	if err := RunAll(Quick(), &sb, false, jsonPath); err != nil {
		t.Fatal(err)
	}
	const pinned = "../../results/rabench-quick.txt"
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("RunAll(Quick()) differs from %s (first difference at line %d).\n"+
			"If the change is intended, regenerate the file with\n"+
			"\tgo run ./cmd/rabench -scale quick -quiet > results/rabench-quick.txt\n"+
			"and say in CHANGES.md why the tables moved.", pinned, firstDiffLine(got, string(want)))
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			Tool       string `json:"tool"`
			RavetSuite string `json:"ravetSuite"`
			Analyzers  int    `json:"analyzers"`
			GoVersion  string `json:"goVersion"`
		} `json:"provenance"`
		Tables []struct {
			ID     string     `json:"id"`
			Kernel string     `json:"kernel"`
			Rows   [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON output: %v", err)
	}
	if doc.Provenance.Tool != "rabench" || doc.Provenance.RavetSuite == "" ||
		doc.Provenance.Analyzers < 6 || doc.Provenance.GoVersion == "" {
		t.Errorf("provenance block = %+v", doc.Provenance)
	}
	var ids []string
	kernels := make(map[string]string)
	for _, tb := range doc.Tables {
		ids = append(ids, tb.ID)
		kernels[tb.ID] = tb.Kernel
		if len(tb.Rows) == 0 {
			t.Errorf("JSON table %s has no rows", tb.ID)
		}
	}
	// RunAll emits the paper's tables and nothing else: host wall-clock
	// timing lives in the bench module, with repeated runs.
	wantIDs := "E1 E2 E3 E4 E4b E5 E6a E6b E8 E12 A1 A2 A3 A4 E9 V1"
	if got := strings.Join(ids, " "); got != wantIDs {
		t.Errorf("JSON tables = %s, want %s", got, wantIDs)
	}
	// Tables record which kernel produced them, so JSON documents stay
	// comparable across kernel-default changes.
	if kernels["E2"] != "scalar" {
		t.Errorf("E2 kernel = %q, want scalar", kernels["E2"])
	}
}

// firstDiffLine returns the 1-based number of the first line on which a
// and b differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

func TestE4bAcrossProcs(t *testing.T) {
	env := quickEnv(t)
	tbl, err := E4bAcrossProcs(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != len(env.Scale.Procs)-1 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// Message reduction must exceed 1 everywhere.
	for r := 0; r < tbl.Rows(); r++ {
		red, err := strconv.ParseFloat(tbl.Cell(r, 3), 64)
		if err != nil {
			t.Fatal(err)
		}
		if red <= 1 {
			t.Errorf("row %d: message reduction %.2f", r, red)
		}
	}
}

func TestE8RealWire(t *testing.T) {
	env := quickEnv(t)
	tbl, err := E8RealWire(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		if tbl.Cell(r, 3) != "identical to sequential" {
			t.Errorf("row %d check: %s", r, tbl.Cell(r, 3))
		}
	}
}

// TestE12Faults runs the fault drills at test scale: every completed
// scenario must produce a bit-identical database, the wedge must surface
// a typed NodeFailedError, and the kill must actually kill (no
// "unexpected" cells).
func TestE12Faults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault drills (seconds of injected timeouts) skipped in -short mode")
	}
	env := quickEnv(t)
	tbl, err := E12Faults(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 5 {
		t.Fatalf("rows = %d, want 5", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		outcome, check := tbl.Cell(r, 1), tbl.Cell(r, 2)
		if check == "MISMATCH" || check == "unexpected" {
			t.Errorf("row %d (%s): outcome %q check %q", r, tbl.Cell(r, 0), outcome, check)
		}
	}
	if !strings.Contains(tbl.Cell(3, 1), "NodeFailedError") {
		t.Errorf("wedge row outcome %q does not name NodeFailedError", tbl.Cell(3, 1))
	}
	if tbl.Cell(4, 2) != "identical to sequential" {
		t.Errorf("resume row check = %q", tbl.Cell(4, 2))
	}
}

func TestA4Asynchrony(t *testing.T) {
	env := quickEnv(t)
	tbl, err := A4Asynchrony(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != len(env.Scale.Procs) {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// At multi-node scales async must not lose badly (gain >= 0.9).
	for r := 1; r < tbl.Rows(); r++ {
		gain, err := strconv.ParseFloat(tbl.Cell(r, 3), 64)
		if err != nil {
			t.Fatal(err)
		}
		if gain < 0.9 {
			t.Errorf("row %d async gain %.2f", r, gain)
		}
	}
}

func TestE9Symmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("symmetry sweep skipped in -short mode")
	}
	tbl, err := E9Symmetry()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		c := tbl.Cell(r, 6)
		if c != "values identical" && c != "mate in 16" {
			t.Errorf("row %d check: %s", r, c)
		}
	}
}

func TestV1Generality(t *testing.T) {
	if testing.Short() {
		t.Skip("generality sweep skipped in -short mode")
	}
	tbl, err := V1Generality(8)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 5 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		if strings.Contains(tbl.Cell(r, 6), "FAILED") {
			t.Errorf("row %d oracle check: %s", r, tbl.Cell(r, 6))
		}
	}
}
