package vet

// ctxpoll: cancellation must keep being polled. Two rules:
//
//  1. A func literal installed as a sched.Job Run closure must use its
//     context parameter — reference ctx somewhere in the body, whether by
//     polling ctx.Err()/ctx.Done() or by passing it on to the work it
//     invokes. A closure that names the parameter "_" (or never mentions
//     it) runs to completion no matter what Cancel or Drain asked for. A
//     closure whose cancellation genuinely flows through another channel
//     (core.Options.Interrupt wired at construction, say) carries
//     //ir:noctx <reason>.
//
//  2. In the configured runtime packages (internal/core), an unbounded
//     wait loop — `for`/`for cond` whose body blocks on the runtime's park
//     primitive, a condition variable, channel, select, sleep, or yield —
//     must poll interruption inside the loop: a pollInterrupt()/Interrupt
//     call, ctx.Err()/ctx.Done(), or a re-read of the runtime phase() (every
//     phase change wakes every parked thread, and shutdown is a phase).
//     Classic three-clause counted loops are exempt (bounded),
//     as are loops annotated //ir:nopoll <reason> — the reviewed list of
//     waits that are woken by the quiescence protocol itself and must NOT
//     unwind on interrupt mid-handshake.

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewCtxPoll returns the cancellation-polling analyzer. schedPkgSuffix
// identifies the scheduler package; corePkgs are the canonical paths whose
// wait loops must poll.
func NewCtxPoll(schedPkgSuffix string, corePkgs ...string) *Analyzer {
	coreSet := make(map[string]bool, len(corePkgs))
	for _, p := range corePkgs {
		coreSet[p] = true
	}
	a := &Analyzer{
		Name: "ctxpoll",
		Doc:  "sched job Run closures must use their context; core wait loops must poll interruption",
	}
	a.Run = func(pass *Pass) error {
		runCtxPollJobs(pass, schedPkgSuffix)
		if coreSet[basePath(pass.Pkg.Path())] {
			runCtxPollLoops(pass)
		}
		return nil
	}
	return a
}

// --- rule 1: sched.Job Run closures ---

func runCtxPollJobs(pass *Pass, schedPkgSuffix string) {
	declIndex := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					declIndex[obj] = fd
				}
			}
		}
	}
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		var runExpr ast.Expr
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isSchedJobType(pass.Info.TypeOf(n), schedPkgSuffix) {
				return true
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Run" {
						runExpr = kv.Value
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Run" || i >= len(n.Rhs) {
					continue
				}
				if isSchedJobType(pass.Info.TypeOf(sel.X), schedPkgSuffix) {
					runExpr = n.Rhs[i]
				}
			}
		}
		if runExpr == nil || pass.IsTestFile(runExpr.Pos()) {
			// Tests submit throwaway jobs that legitimately ignore ctx.
			return true
		}
		checkRunClosure(pass, runExpr, declIndex)
		return true
	})
}

func isSchedJobType(t types.Type, schedPkgSuffix string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Job" && strings.HasSuffix(named.Obj().Pkg().Path(), schedPkgSuffix)
}

// checkRunClosure verifies the closure references its ctx parameter.
func checkRunClosure(pass *Pass, e ast.Expr, declIndex map[*types.Func]*ast.FuncDecl) {
	var ftype *ast.FuncType
	var body *ast.BlockStmt
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		ftype, body = e.Type, e.Body
	case *ast.Ident:
		if f, ok := pass.Info.Uses[e].(*types.Func); ok {
			if fd := declIndex[f]; fd != nil {
				ftype, body = fd.Type, fd.Body
			}
		}
	case *ast.SelectorExpr:
		if f, ok := pass.Info.Uses[e.Sel].(*types.Func); ok {
			if fd := declIndex[f]; fd != nil {
				ftype, body = fd.Type, fd.Body
			}
		}
	}
	if ftype == nil || body == nil || len(ftype.Params.List) == 0 {
		return
	}
	if pass.Allowed(e.Pos(), "noctx") {
		return
	}
	first := ftype.Params.List[0]
	if len(first.Names) == 0 || first.Names[0].Name == "_" {
		pass.Reportf(e.Pos(), "sched job Run closure discards its context — cancellation cannot reach the work (use ctx or annotate //ir:noctx <reason>)")
		return
	}
	param := pass.Info.Defs[first.Names[0]]
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == param {
			used = true
			return false
		}
		return !used
	})
	if !used {
		pass.Reportf(e.Pos(), "sched job Run closure never uses its context %s — cancellation cannot reach the work (poll or forward it, or annotate //ir:noctx <reason>)",
			first.Names[0].Name)
	}
}

// --- rule 2: core wait loops ---

func runCtxPollLoops(pass *Pass) {
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if pass.IsTestFile(loop.Pos()) {
			return true
		}
		// Bounded counted loop: for init; cond; post { ... } with all three
		// clauses present.
		if loop.Init != nil && loop.Cond != nil && loop.Post != nil {
			return true
		}
		if !loopBlocks(pass, loop.Body) {
			return true
		}
		if loopPolls(pass, loop) {
			return true
		}
		if pass.Allowed(loop.For, "nopoll") {
			return true
		}
		pass.Reportf(loop.For, "unbounded wait loop never polls interruption — a canceled run would hang here (call pollInterrupt/ctx.Err in the loop, or annotate //ir:nopoll <reason>)")
		return true
	})
}

// loopBlocks reports whether the loop body waits: parks through the
// runtime's park primitive, condition-variable waits, channel operations,
// selects, sleeps, or scheduler yields.
func loopBlocks(pass *Pass, body *ast.BlockStmt) bool {
	blocks := false
	ast.Inspect(body, func(n ast.Node) bool {
		if blocks {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate evaluation context
		case *ast.SelectStmt:
			blocks = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				blocks = true
			}
		case *ast.SendStmt:
			blocks = true
		case *ast.CallExpr:
			f := calleeFunc(pass.Info, n)
			if f == nil {
				return true
			}
			switch {
			case f.Name() == "park" && recvNamed(f) != nil:
				blocks = true
			case funcPkgPath(f) == "time" && f.Name() == "Sleep":
				blocks = true
			case funcPkgPath(f) == "runtime" && f.Name() == "Gosched":
				blocks = true
			case f.Name() == "Wait" && recvNamed(f) != nil && recvNamed(f).Obj().Name() == "Cond":
				blocks = true
			}
		}
		return !blocks
	})
	return blocks
}

// loopPolls reports whether the loop consults interruption: a call to a
// function or method named pollInterrupt, a use of an Interrupt field or
// callback, ctx.Err()/ctx.Done(), or the runtime's park protocol — a loop
// that parks and re-reads phase() returns on phRollback and phShutdown,
// which is exactly how cancellation reaches parked threads (shutdown stores
// the phase and wakes every thread).
func loopPolls(pass *Pass, loop *ast.ForStmt) bool {
	polls := false
	check := func(n ast.Node) bool {
		if polls {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "Interrupt" {
				polls = true
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "pollInterrupt" {
					polls = true
				}
			case *ast.SelectorExpr:
				switch fun.Sel.Name {
				case "pollInterrupt", "Interrupt", "phase":
					polls = true
				case "Err", "Done":
					if t := pass.Info.TypeOf(fun.X); t != nil && isContextType(t) {
						polls = true
					}
				}
			}
		}
		return !polls
	}
	ast.Inspect(loop.Body, check)
	if !polls && loop.Cond != nil {
		ast.Inspect(loop.Cond, check)
	}
	return polls
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Context" && named.Obj().Pkg().Path() == "context"
}
