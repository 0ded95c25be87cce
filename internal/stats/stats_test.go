package stats

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestComputeBalance(t *testing.T) {
	b := ComputeBalance([]float64{10, 10, 10, 10})
	if b.Imbalance != 1.0 || b.CV != 0 || b.Mean != 10 {
		t.Errorf("uniform balance = %+v", b)
	}
	b = ComputeBalance([]float64{5, 15})
	if b.Mean != 10 || b.Imbalance != 1.5 || b.Min != 5 || b.Max != 15 {
		t.Errorf("skewed balance = %+v", b)
	}
	if math.Abs(b.CV-0.5) > 1e-12 {
		t.Errorf("CV = %v, want 0.5", b.CV)
	}
	if got := ComputeBalance(nil); got != (Balance{}) {
		t.Errorf("empty balance = %+v", got)
	}
	z := ComputeBalance([]float64{0, 0})
	if z.Imbalance != 0 {
		t.Errorf("all-zero balance = %+v", z)
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{0, "0 B"},
		{1023, "1023 B"},
		{1024, "1.0 KiB"},
		{1536, "1.5 KiB"},
		{1 << 20, "1.0 MiB"},
		{600 << 20, "600.0 MiB"},
		{3 << 30, "3.0 GiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.n); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1,000"},
		{2496144, "2,496,144"},
		{1234567890, "1,234,567,890"},
	}
	for _, c := range cases {
		if got := Count(c.n); got != c.want {
			t.Errorf("Count(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("T1: sizes", "stones", "positions", "bytes")
	tb.Row("13", Count(2496144), Bytes(1248072))
	tb.Row(7, 18564, 3.14159)
	tb.Note("positions are C(n+11, 11)")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T1: sizes", "stones", "2,496,144", "3.14", "note: positions"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows() = %d", tb.Rows())
	}
	if tb.Cell(1, 2) != "3.14" {
		t.Errorf("Cell(1,2) = %q", tb.Cell(1, 2))
	}
	// Columns align: header and first data row start at the same offset
	// for column 2.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("zero histogram is not empty")
	}
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	h.Observe(0)
	if h.Count() != 1001 {
		t.Errorf("Count = %d, want 1001", h.Count())
	}
	wantMean := float64(1000*1001/2) / 1001
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	// The median of 0..1000 is 500; its bucket [256, 512) has edge 511.
	if got := h.Quantile(0.5); got != 511 {
		t.Errorf("Quantile(0.5) = %d, want 511", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Errorf("Quantile(1) = %d, want 1023", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %d, want 0 (the single zero)", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}

func TestWriteJSONProvenance(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Row("1", "2")
	var buf strings.Builder
	prov := Provenance{Tool: "rastats", RavetSuite: "ravet/1", Analyzers: 6}
	if err := WriteJSON(&buf, prov, []NamedTable{{ID: "X", Table: tb}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance Provenance `json:"provenance"`
		Tables     []struct {
			ID   string     `json:"id"`
			Rows [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Provenance.Tool != "rastats" || doc.Provenance.RavetSuite != "ravet/1" || doc.Provenance.Analyzers != 6 {
		t.Errorf("provenance = %+v", doc.Provenance)
	}
	if doc.Provenance.GoVersion == "" {
		t.Error("GoVersion not filled in by WriteJSON")
	}
	if len(doc.Tables) != 1 || doc.Tables[0].ID != "X" || len(doc.Tables[0].Rows) != 1 {
		t.Errorf("tables block = %+v", doc.Tables)
	}
}
