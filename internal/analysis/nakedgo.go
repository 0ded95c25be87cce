package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NakedGo flags goroutine launches in engine/server code that nothing can
// wait for. Every goroutine in those packages participates in an orderly
// shutdown story — Close drains conns, solves unwind the mesh, the race
// CI job hunts leaks — so a launch must be tied to some completion
// mechanism the spawner can observe:
//
//   - the spawned body signals a sync.WaitGroup (or any .Done()),
//   - or it blocks on / closes a channel (quit channels, event loops,
//     ctx.Done()-style selects),
//
// checked through same-package method and function bodies. A launch whose
// target cannot be resolved in-package (e.g. handing a method value of a
// foreign type to go) is flagged: either wrap it in a tracked closure or
// justify the ignore.
var NakedGo = &Analyzer{
	Name:     "nakedgo",
	Doc:      "goroutines in engine/server code must be tied to a WaitGroup, channel or context",
	Packages: []string{"internal/ra", "internal/remote", "internal/server", "internal/broker", "internal/oocore", "internal/ladder"},
	Run:      runNakedGo,
}

func runNakedGo(pass *Pass) error {
	idx := funcIndex(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, target := spawnedBody(pass, idx, gs.Call)
			if body == nil {
				pass.Report(gs.Pos(), fmt.Sprintf("goroutine target %s is not resolvable in this package; tie it to a WaitGroup or quit channel in a tracked closure, or justify the ignore", target))
				return true
			}
			if !bodyIsTied(pass, body) {
				pass.Report(gs.Pos(), fmt.Sprintf("goroutine %s is tied to no WaitGroup, channel or context: nothing can wait for it during shutdown", target))
			}
			return true
		})
	}
	return nil
}

// spawnedBody resolves the function a go statement launches to a body the
// analyzer can inspect: a literal inline, or a same-package function or
// method declaration.
func spawnedBody(pass *Pass, idx map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) (*ast.BlockStmt, string) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fn.Body, "func literal"
	default:
		name := types.ExprString(call.Fun)
		if f := calleeFunc(pass.Info, call); f != nil {
			if decl, ok := idx[f]; ok && decl.Body != nil {
				return decl.Body, name
			}
		}
		return nil, name
	}
}

// bodyIsTied reports whether the goroutine body contains a completion
// signal: a call to any .Done()/.Wait(), a channel receive or send, a
// select statement, a range over a channel, or a close of a channel.
func bodyIsTied(pass *Pass, body *ast.BlockStmt) bool {
	tied := false
	inspectShallow(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			tied = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				tied = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" &&
				pass.Info.Uses[id] == types.Universe.Lookup("close") {
				tied = true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Done" || sel.Sel.Name == "Wait" {
					tied = true
				}
			}
		}
		return !tied
	})
	return tied
}
