package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// DetRand keeps the deterministic solve/checksum paths deterministic.
// Databases built by any engine, any kernel, on any machine must be
// bit-identical (TestHotPathEngineParity, TestSWARKernelParity),
// checkpoints must resume bit-identically (E12), and faultnet schedules
// replay from a seed —
// which forbids three nondeterminism sources in those packages:
//
//  1. the global math/rand source (process-seeded; rand.New(NewSource(s))
//     with an explicit seed is the sanctioned form, and what faultnet
//     uses);
//  2. time.Now — wall-clock values leak into output, checkpoints or
//     schedules;
//  3. map iteration driving side effects (calls or channel sends per
//     iteration): Go randomizes map order per run, so emission order
//     changes run to run.
//
// Order-insensitive map loops (pure accumulation) are allowed; a loop
// whose effects genuinely commute can carry a //ravet:ignore with the
// argument why.
var DetRand = &Analyzer{
	Name:     "detrand",
	Doc:      "no unseeded randomness, wall clock or map-order dependence in deterministic paths",
	Packages: []string{"internal/ra", "internal/zdb", "internal/faultnet", "internal/game", "internal/oocore"},
	Run:      runDetRand,
}

func runDetRand(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods on a seeded *rand.Rand are the sanctioned form
	}
	switch f.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		switch f.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			return // constructors taking an explicit seed
		}
		pass.Report(call.Pos(), fmt.Sprintf("%s.%s draws from the process-seeded global source; deterministic paths must use rand.New(rand.NewSource(seed))", f.Pkg().Name(), f.Name()))
	case "time":
		if f.Name() == "Now" {
			pass.Report(call.Pos(), "time.Now in a deterministic path: wall-clock values leak into databases, checkpoints or schedules and break bit-identical replay")
		}
	}
}

// checkMapRange flags map iteration whose body performs side effects per
// iteration (function/method calls or channel sends): their order then
// depends on Go's randomized map order.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var effect ast.Node
	inspectShallow(rng.Body, func(n ast.Node) bool {
		if effect != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = n
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "len", "cap", "delete", "append", "min", "max", "copy", "clear", "make", "new":
					if pass.Info.Uses[id] == types.Universe.Lookup(id.Name) {
						return true // order-insensitive builtins
					}
				}
			}
			if isConversion(pass.Info, n) {
				return true
			}
			effect = n
			return false
		}
		return true
	})
	if effect != nil {
		pass.Report(rng.Pos(), fmt.Sprintf("map iteration drives side effects (%s at %s); Go randomizes map order per run, so emission order is nondeterministic — iterate a sorted key slice or justify with //ravet:ignore", describeNode(effect), pass.Fset.Position(effect.Pos())))
	}
}

func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

func describeNode(n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.CallExpr:
		return "call to " + types.ExprString(n.Fun)
	}
	return "statement"
}
