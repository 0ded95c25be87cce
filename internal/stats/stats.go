// Package stats provides the small numeric and reporting helpers shared
// by the experiment harness: load-balance summaries, human-readable units,
// and aligned-column tables matching the paper-style reporting of
// cmd/rabench.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync/atomic"
)

// Balance summarises a per-worker load distribution.
type Balance struct {
	Min, Max, Mean float64
	// Imbalance is Max/Mean: 1.0 is perfect balance; the parallel phase
	// runs at the speed of the most loaded worker.
	Imbalance float64
	// CV is the coefficient of variation (stddev/mean).
	CV float64
}

// ComputeBalance summarises the loads. Empty or all-zero input returns a
// zero Balance.
func ComputeBalance(loads []float64) Balance {
	if len(loads) == 0 {
		return Balance{}
	}
	b := Balance{Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range loads {
		sum += v
		b.Min = math.Min(b.Min, v)
		b.Max = math.Max(b.Max, v)
	}
	b.Mean = sum / float64(len(loads))
	if b.Mean == 0 {
		return Balance{Min: b.Min, Max: b.Max}
	}
	var ss float64
	for _, v := range loads {
		d := v - b.Mean
		ss += d * d
	}
	b.Imbalance = b.Max / b.Mean
	b.CV = math.Sqrt(ss/float64(len(loads))) / b.Mean
	return b
}

// Histogram is a power-of-two bucket histogram for latency-style
// measurements: bucket i counts values v with 2^(i-1) <= v < 2^i (bucket
// 0 counts zeros). Observations are lock-free; the zero value is ready
// for use, and all methods are safe for concurrent callers.
type Histogram struct {
	buckets [65]atomic.Uint64
	sum     atomic.Uint64
	n       atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Mean returns the exact mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// upper edge of the power-of-two bucket the quantile falls in.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	seen := uint64(0)
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return 1<<i - 1
		}
	}
	return 1<<64 - 1
}

// Bytes renders a byte count in binary units.
func Bytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := uint64(unit), 0
	for n/div >= unit && exp < 4 {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTP"[exp])
}

// Count renders a large count with thousands separators.
func Count(n uint64) string {
	s := fmt.Sprintf("%d", n)
	var out strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			out.WriteByte(',')
		}
		out.WriteRune(r)
	}
	return out.String()
}

// Table is a paper-style results table: a title, a header row, and
// left-aligned first column with right-aligned numeric columns.
type Table struct {
	Title   string
	Columns []string
	// Kernel records which in-core wave kernel produced the numbers
	// ("scalar", "swar", or "scalar+swar" for comparison tables). It is
	// carried into the JSON output so BENCH_*.json files remain
	// comparable across revisions that change the kernel default.
	Kernel string
	rows   [][]string
	notes  []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Note appends a footnote rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Render writes the table, aligned, to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				sb.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
			} else {
				sb.WriteString(fmt.Sprintf("%*s", widths[i], cell))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd
	}
	sb.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		sb.WriteString("  note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// tableJSON is the serialised shape of one table in WriteJSON output.
type tableJSON struct {
	ID      string     `json:"id,omitempty"`
	Title   string     `json:"title"`
	Kernel  string     `json:"kernel,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// NamedTable pairs a table with the short experiment id ("E1", "A3", ...)
// used for JSON records.
type NamedTable struct {
	ID    string
	Table *Table
}

// Provenance records how a results file was produced, so a number in a
// table can be traced back to the tool and the correctness gates the
// tree passed when it was generated.
type Provenance struct {
	// Tool is the command that wrote the file ("rabench", "rastats").
	Tool string `json:"tool"`
	// RavetSuite is the analyzer-suite version (analysis.Version) the
	// tree is gated on, and Analyzers the number of analyzers in it.
	RavetSuite string `json:"ravetSuite,omitempty"`
	Analyzers  int    `json:"analyzers,omitempty"`
	// GoVersion is filled by WriteJSON when left empty.
	GoVersion string `json:"goVersion"`
}

// documentJSON is the top-level shape of a WriteJSON file.
type documentJSON struct {
	Provenance Provenance  `json:"provenance"`
	Tables     []tableJSON `json:"tables"`
}

// WriteJSON writes the tables as one indented JSON document under a
// provenance header, preserving the rendered cell strings so downstream
// tooling reads exactly the numbers the text report shows.
func WriteJSON(w io.Writer, prov Provenance, tables []NamedTable) error {
	if prov.GoVersion == "" {
		prov.GoVersion = runtime.Version()
	}
	out := documentJSON{Provenance: prov, Tables: make([]tableJSON, len(tables))}
	for i, nt := range tables {
		out.Tables[i] = tableJSON{
			ID:      nt.ID,
			Title:   nt.Table.Title,
			Kernel:  nt.Table.Kernel,
			Columns: nt.Table.Columns,
			Rows:    nt.Table.rows,
			Notes:   nt.Table.notes,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Rows returns the number of data rows (for tests).
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col) (for tests).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }
