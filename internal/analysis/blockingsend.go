package analysis

// blockingsend: inter-deme communication must be non-blocking.
//
// The async island/cellular/p2p runtimes follow the bounded-staleness
// message-passing model: a migrant batch that cannot be delivered right
// now is dropped, retried later or dead-lettered — evolution never waits
// on a peer. A bare channel send is the exact deadlock vector the
// supervision layer (PR 1) exists to contain at runtime: if the receiver
// has died or its buffer is full, the sender blocks forever, the
// heartbeat fires, and a healthy deme gets restarted for another deme's
// failure. Every send in a communication package must therefore sit in a
// select that cannot block: one with a default case, or with a
// timeout/done/ctx escape case.

import (
	"go/ast"
	"go/token"
	"strings"
)

// commScope lists the package patterns of the communication runtimes:
// where blockingsend polices each send and whose functions and spawned
// goroutines form chantopo's topology. Pure-compute packages may use
// channels however they like.
var commScope = []string{
	"pga/internal/island",
	"pga/internal/migration",
	"pga/internal/p2p",
	"pga/internal/masterslave",
	"pga/internal/cellular",
	"pga/internal/supervise",
	"pga/internal/transport",
}

// BlockingSend builds the blockingsend analyzer.
func BlockingSend() *Analyzer {
	return &Analyzer{
		Name: "blockingsend",
		Doc: "requires every channel send in the communication runtimes to occur " +
			"under a select with a default or timeout/done/ctx case; a bare send " +
			"is the deadlock vector bounded asynchronous migration exists to avoid",
		Run: func(pass *Pass) {
			if !pathMatchAny(commScope, pass.PkgPath) {
				return
			}
			for _, file := range pass.Files {
				var stack []ast.Node
				ast.Inspect(file, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					send, ok := n.(*ast.SendStmt)
					if !ok {
						return true
					}
					switch classifySend(send, stack) {
					case sendSafe:
					case sendBare:
						pass.Reportf(send.Arrow, "blockingsend",
							"bare channel send can block forever if the receiver is full or dead; "+
								"wrap it in a select with a default or timeout/ctx case")
					case sendNoEscape:
						pass.Reportf(send.Arrow, "blockingsend",
							"channel send in a select with no default and no timeout/done/ctx case "+
								"can still block forever; add an escape case")
					}
					return true
				})
			}
		},
	}
}

type sendClass int

const (
	sendSafe sendClass = iota
	sendBare
	sendNoEscape
)

// classifySend decides whether the send (innermost node of stack) can
// block. A send is safe only when it is the communication of a select
// case and that select has a default or an escape receive.
func classifySend(send *ast.SendStmt, stack []ast.Node) sendClass {
	if len(stack) < 4 {
		return sendBare
	}
	clause, ok := stack[len(stack)-2].(*ast.CommClause)
	if !ok || clause.Comm != ast.Stmt(send) {
		// A send in a case *body* (not the comm) is an ordinary bare send.
		return sendBare
	}
	sel, ok := stack[len(stack)-4].(*ast.SelectStmt)
	if !ok {
		return sendBare
	}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc == clause {
			continue
		}
		if cc.Comm == nil {
			return sendSafe // default case: the select never blocks
		}
		if recv := commReceiveExpr(cc.Comm); recv != nil && isEscapeChannel(recv) {
			return sendSafe // timeout / done / ctx escape
		}
	}
	return sendNoEscape
}

// commReceiveExpr returns the channel expression of a receive comm
// statement (`<-ch`, `v := <-ch`, `v, ok := <-ch`), or nil for sends.
func commReceiveExpr(comm ast.Stmt) ast.Expr {
	var expr ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// isEscapeChannel reports whether the received-from expression looks like
// a cancellation or timeout source: ctx.Done(), a timer/ticker .C field,
// time.After(...), or a channel whose name signals shutdown intent.
func isEscapeChannel(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" {
				return true // ctx.Done() and done-factories
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" && sel.Sel.Name == "After" {
				return true
			}
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			return escapeName(id.Name)
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "C" {
			return true // timer.C / ticker.C
		}
		return escapeName(e.Sel.Name)
	case *ast.Ident:
		return escapeName(e.Name)
	}
	return false
}

// escapeName matches identifiers conventionally carrying shutdown or
// deadline semantics.
func escapeName(name string) bool {
	n := strings.ToLower(name)
	for _, kw := range []string{"done", "stop", "quit", "cancel", "ctx", "timeout", "deadline"} {
		if strings.Contains(n, kw) {
			return true
		}
	}
	return false
}
