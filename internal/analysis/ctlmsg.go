package analysis

import (
	"go/ast"
	"go/types"
)

// CtlMsg checks the legs of the control-round contract that the compiler
// cannot. In internal/core every round message embeds the `Round` header
// (Seq, Epoch) and every request satisfies the ctlReq interface (the
// header plus its ctl.* event type), so gm.call, managerLoop's fence and
// dedupe, and c.reply only compile for messages that carry both. What
// types cannot say is that a message is *handled*:
//
//   - every ctlReq implementation has a managerLoop arm; a missing arm
//     kills the container with an unknown-control failure at runtime;
//   - every other header-embedding message except responses (the shard
//     relays and the subscriber notice, i.e. pump traffic) has a dispatch
//     or shardDispatch arm; a missing arm drops it silently.
//
// Responses need no arm: they land in the issuing manager's response
// mailbox and are matched there by Seq.
var CtlMsg = &Analyzer{
	Name: "ctlmsg",
	Doc:  "every round request (ctlReq) needs a managerLoop arm, and every other header-embedding non-response message a dispatch/shardDispatch arm",
	Applies: func(pkg *Package) bool {
		// The rule binds wherever the round header is declared; packages
		// without one have no round messages to be exhaustive about.
		return declaresRoundHeader(pkg.Types)
	},
	Run: runCtlMsg,
}

// declaresRoundHeader reports whether the package declares the round
// header type.
func declaresRoundHeader(pkg *types.Package) bool {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok &&
			roundShapeOf(tn.Type()).kind == roundHeaderMsg {
			return true
		}
	}
	return false
}

func runCtlMsg(pass *Pass) {
	scope := pass.Pkg.Types.Scope()
	var reqIfaces []*types.Interface
	var decls []*types.TypeName
	for _, name := range scope.Names() { // sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if types.IsInterface(tn.Type()) && roundShapeOf(tn.Type()).kind == roundReqMsg {
			reqIfaces = append(reqIfaces, tn.Type().Underlying().(*types.Interface))
			continue
		}
		decls = append(decls, tn)
	}
	inManagerLoop := switchCaseTypes(pass, "managerLoop")
	inDispatch := switchCaseTypes(pass, "dispatch")
	for tn := range switchCaseTypes(pass, "shardDispatch") {
		inDispatch[tn] = true
	}
	for _, tn := range decls {
		if isCtlReq(tn, reqIfaces) {
			if !inManagerLoop[tn] {
				pass.Reportf(tn.Pos(),
					"round request %s has no managerLoop arm: containers would die on an unknown control message",
					tn.Name())
			}
			continue
		}
		s := roundShapeOf(tn.Type())
		if s.embedded && s.kind != roundRespMsg && !inDispatch[tn] {
			pass.Reportf(tn.Pos(),
				"round message %s is neither a request nor a response, and no dispatch/shardDispatch arm handles it: it would be silently dropped",
				tn.Name())
		}
	}
}

// isCtlReq reports whether tn (or a pointer to it) implements one of the
// package's request interfaces.
func isCtlReq(tn *types.TypeName, reqIfaces []*types.Interface) bool {
	if types.IsInterface(tn.Type()) {
		return false
	}
	for _, it := range reqIfaces {
		if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
			return true
		}
	}
	return false
}

// switchCaseTypes collects the named types mentioned (possibly behind a
// pointer) in the case clauses of every type switch inside the function or
// method called name. Missing functions yield an empty set, so each absence
// is reported per message type.
func switchCaseTypes(pass *Pass, name string) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, f := range pass.Pkg.Files {
		for _, fd := range enclosingFuncs(f) {
			if fd.Name.Name != name {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSwitchStmt)
				if !ok {
					return true
				}
				for _, stmt := range ts.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, expr := range cc.List {
						if tn := namedTypeOf(pass, expr); tn != nil {
							out[tn] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// namedTypeOf resolves a case-clause type expression to its named type,
// unwrapping one pointer level (cases are written `case *IncreaseReq:`).
func namedTypeOf(pass *Pass, expr ast.Expr) *types.TypeName {
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || !tv.IsType() {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
