// Package analysis is ravet: a project-specific static-analysis suite
// that mechanically enforces the invariants this repository's correctness
// story depends on and that no generic tool checks:
//
//   - conndeadline: every direct net.Conn read/write in the wire packages
//     is dominated by a deadline on the same conn (the E12 wedge-detection
//     guarantee — a peer that stops draining must trip a timeout, never
//     hang the mesh).
//   - poolreturn: pooled combining-buffer batches follow the
//     alloc/emit/recycle discipline (zero-length alloc results, no use
//     after release, a release site wherever an allocator is installed).
//   - typederr: error chains survive package boundaries (fmt.Errorf wraps
//     error operands with %w; comparisons go through errors.Is) so the
//     NodeFailedError/CounterOverflowError contracts keep working.
//   - laneconst: the scalar packed-uint32 state layout and the SWAR
//     byte-lane layout agree structurally (the guarantee
//     TestSWARKernelParity checks), and awari's board words hold exactly
//     RowSize pit bytes whose top bits stay clear.
//   - detrand: deterministic solve/checksum paths (engines, codecs,
//     faultnet schedules) stay deterministic: no wall clock, no global
//     math/rand source, no side effects driven by map iteration order.
//   - nakedgo: every goroutine in engine/server code is tied to a
//     WaitGroup, quit channel or equivalent, so shutdown can always wait
//     for it.
//
// The suite runs standalone via cmd/ravet (and as a vet tool via
// `go vet -vettool`); findings are suppressed only by an inline
// `//ravet:ignore <analyzer> <reason>` directive, which the driver counts
// and reports.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Version identifies the ravet suite revision; recorded in benchmark
// provenance blocks so result tables say what was verified. Bump it when
// an analyzer is added, removed, or materially changes what it accepts.
const Version = "ravet/2"

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and in
	// //ravet:ignore directives.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Packages restricts the analyzer to packages whose import path has
	// one of these suffixes. Empty means every package.
	Packages []string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// appliesTo reports whether the analyzer runs on the given import path.
func (a *Analyzer) appliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, suffix := range a.Packages {
		if path == suffix || hasPathSuffix(path, suffix) {
			return true
		}
	}
	return false
}

func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(token.Pos, string)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) { p.report(pos, msg) }

// Finding is one diagnostic, possibly suppressed by an ignore directive.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings covered by a //ravet:ignore directive;
	// Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

// Result aggregates a run of the suite over a set of packages.
type Result struct {
	// Findings holds every diagnostic, suppressed ones included, in
	// package-then-position order.
	Findings []Finding
	// DirectiveErrors reports malformed //ravet:ignore directives
	// (unknown analyzer name, missing reason). They fail the run like
	// findings do: a directive that cannot match anything is a typo that
	// would otherwise silently stop suppressing.
	DirectiveErrors []Finding
	// Packages is the number of packages analyzed.
	Packages int
}

// Unsuppressed returns the findings not covered by an ignore directive.
func (r *Result) Unsuppressed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// SuppressedCount returns how many findings each analyzer had suppressed.
func (r *Result) SuppressedCount() map[string]int {
	m := map[string]int{}
	for _, f := range r.Findings {
		if f.Suppressed {
			m[f.Analyzer]++
		}
	}
	return m
}
