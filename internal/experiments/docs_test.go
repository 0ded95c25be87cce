package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestREADMEHeadlineNumbers holds README's "Results at a glance" to the
// pinned default-scale output: the speedup at 64 processors, the
// combining ratios at p = 2 and p = 16, the 600 MiB crossing and the
// 1/64 shard at that rung. A README number typed by hand, or a pinned
// file regenerated without the README, fails here.
func TestREADMEHeadlineNumbers(t *testing.T) {
	readme := readRepoFile(t, "README.md")
	pinned := readRepoFile(t, "results/rabench-default.txt")
	_, glance, ok := strings.Cut(readme, "## Results at a glance")
	if !ok {
		t.Fatal(`README has no "Results at a glance" section`)
	}
	glance, _, _ = strings.Cut(glance, "\n## ")

	quoted := func(pattern string) []string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(glance)
		if m == nil {
			t.Fatalf("README's results section does not match %q", pattern)
		}
		return m[1:]
	}
	check := func(what, readmeSays, pinnedSays string) {
		t.Helper()
		if readmeSays != pinnedSays {
			t.Errorf("README quotes %s as %s; results/rabench-default.txt says %s", what, readmeSays, pinnedSays)
		}
	}

	e3 := pinnedRows(t, pinned, "E3:")
	check("the speedup at 64 processors", quoted(`speedup (\d+\.\d)\*\*`)[0],
		fmt.Sprintf("%.1f", cellFloat(t, rowWhere(t, e3, "64")[2])))

	e4b := pinnedRows(t, pinned, "E4b:")
	ratios := quoted(`(\d+)x fewer wire messages at p=2, (\d+)x at p=16`)
	check("the combining ratio at p=2", ratios[0], fmt.Sprintf("%.0f", cellFloat(t, rowWhere(t, e4b, "2")[3])))
	check("the combining ratio at p=16", ratios[1], fmt.Sprintf("%.0f", cellFloat(t, rowWhere(t, e4b, "16")[3])))

	// The crossing is the first extrapolated rung whose scalar
	// uniprocessor working set exceeds 600 MiB.
	var cross []string
	for _, row := range pinnedRows(t, pinned, "E6b:") {
		if mebibytes(t, row[2]) > 600 {
			cross = row
			break
		}
	}
	if cross == nil {
		t.Fatal("no E6b rung crosses 600 MiB")
	}
	crossing := quoted(`crosses 600 MiB at (\d+) stones \((\d+) MiB`)
	check("the 600 MiB crossing rung", crossing[0], cross[0])
	check("the crossing rung's working set", crossing[1], fmt.Sprintf("%.0f", mebibytes(t, cross[2])))
	check("the crossing rung's 1/64 shard", quoted(`1/64 shard is (\d+\.\d) MiB`)[0],
		fmt.Sprintf("%.1f", mebibytes(t, cross[4])))
}

// TestEXPERIMENTSQuotesPinnedTables checks that every table EXPERIMENTS.md
// shows (a code block opening with a table title such as "E3:") is a
// verbatim excerpt of the pinned default-scale output.
func TestEXPERIMENTSQuotesPinnedTables(t *testing.T) {
	doc := readRepoFile(t, "EXPERIMENTS.md")
	pinned := readRepoFile(t, "results/rabench-default.txt")
	title := regexp.MustCompile(`^[AEV]\d+[a-z]?: `)
	blocks := strings.Split(doc, "```")
	quoted := 0
	for i := 1; i < len(blocks); i += 2 {
		block := strings.TrimPrefix(blocks[i], "\n")
		if !title.MatchString(block) {
			continue
		}
		quoted++
		if !strings.Contains(pinned, block) {
			name, _, _ := strings.Cut(block, "\n")
			t.Errorf("EXPERIMENTS.md's table %q is not an excerpt of results/rabench-default.txt", name)
		}
	}
	if quoted == 0 {
		t.Error("EXPERIMENTS.md quotes no table")
	}
}

// readRepoFile reads a file named relative to the repository root.
func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cellGap separates the cells of a rendered table row.
var cellGap = regexp.MustCompile(`\s{2,}`)

// pinnedRows returns the data rows of the rendered table whose title
// starts with title, each split into its cells.
func pinnedRows(t *testing.T, out, title string) [][]string {
	t.Helper()
	_, body, ok := strings.Cut(out, "\n"+title)
	if !ok {
		t.Fatalf("pinned output has no table %q", title)
	}
	lines := strings.Split(body, "\n")
	var rows [][]string
	for _, line := range lines[3:] { // rest of title, header, rule
		if line == "" || strings.HasPrefix(line, "  note:") {
			break
		}
		rows = append(rows, cellGap.Split(line, -1))
	}
	return rows
}

// rowWhere returns the row whose first cell is key.
func rowWhere(t *testing.T, rows [][]string, key string) []string {
	t.Helper()
	for _, row := range rows {
		if row[0] == key {
			return row
		}
	}
	t.Fatalf("no row %q", key)
	return nil
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mebibytes parses a stats.Bytes cell ("738.4 MiB", "1.1 GiB") in MiB.
func mebibytes(t *testing.T, cell string) float64 {
	t.Helper()
	num, unit, _ := strings.Cut(cell, " ")
	scale := map[string]float64{"B": 1.0 / (1 << 20), "KiB": 1.0 / (1 << 10), "MiB": 1, "GiB": 1 << 10}[unit]
	if scale == 0 {
		t.Fatalf("cell %q is not a byte size", cell)
	}
	return cellFloat(t, num) * scale
}
