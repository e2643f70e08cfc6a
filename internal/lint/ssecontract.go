package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// ssePkg owns the Server-Sent-Events wire format.
const ssePkg = "delta/internal/sse"

// SSEContract checks the serving side of every event stream against the
// resume-and-liveness contract the jobs API and shard streaming rely on.
// Frames are written by internal/sse alone, whose Writer gives every
// result frame an `id:` line, so reconnecting clients (and the fleet's
// SSE client) can resume via Last-Event-ID instead of replaying or —
// worse — double-merging results; that package's tests pin it. So:
//
//   - setting a text/event-stream Content-Type outside internal/sse is a
//     finding: a hand-rolled stream bypasses the writer and its ids
//     (setting Accept on an outgoing client request does not count);
//   - a handler — any function that calls sse.Start — must call Flush,
//     so frames actually leave the process instead of sitting in the
//     response buffer until the sweep ends;
//   - and must select on the request context's Done channel, so an
//     abandoned client releases its stream goroutine instead of leaking.
var SSEContract = &Analyzer{
	Name: "ssecontract",
	Doc: "event streams are served through internal/sse, and handlers " +
		"calling sse.Start call Flush and select on ctx.Done()",
	Run: runSSEContract,
}

func runSSEContract(p *Package) []Diagnostic {
	if p.Path == ssePkg {
		return nil
	}
	var diags []Diagnostic
	p.eachFunc(func(fd *ast.FuncDecl) {
		for _, call := range eventStreamContentTypes(fd.Body) {
			diags = append(diags, p.diag("ssecontract", call,
				"%s sets a text/event-stream Content-Type by hand: serve the stream through internal/sse (sse.Start), whose writer gives every result frame the id Last-Event-ID resume needs", fd.Name.Name))
		}
		if !p.callsSSEStart(fd.Body) {
			return
		}
		if !p.callsFlush(fd.Body) {
			diags = append(diags, p.diag("ssecontract", fd.Name,
				"SSE handler %s never calls Flush: frames sit in the response buffer and clients see nothing until the stream ends", fd.Name.Name))
		}
		if !p.selectsOnDone(fd.Body) {
			diags = append(diags, p.diag("ssecontract", fd.Name,
				"SSE handler %s never waits on ctx.Done(): an abandoned client leaks the stream goroutine for the life of the sweep", fd.Name.Name))
		}
	})
	return diags
}

// eventStreamContentTypes returns the `h.Set("Content-Type",
// "text/event-stream")` (and Add) calls in body — the serving side of a
// stream.
func eventStreamContentTypes(body *ast.BlockStmt) []*ast.CallExpr {
	var found []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		switch selectionMethodName(call) {
		case "Set", "Add":
		default:
			return true
		}
		key, okKey := literalString(call.Args[0])
		val, okVal := literalString(call.Args[1])
		if okKey && okVal && strings.EqualFold(key, "Content-Type") &&
			strings.HasPrefix(val, "text/event-stream") {
			found = append(found, call)
		}
		return true
	})
	return found
}

func literalString(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// callsSSEStart reports whether body starts an event stream through
// internal/sse — what makes a function an SSE handler.
func (p *Package) callsSSEStart(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgObj(p.callee(call), ssePkg, "Start") {
			found = true
		}
		return !found
	})
	return found
}

func (p *Package) callsFlush(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok &&
			selectionMethodName(call) == "Flush" && len(call.Args) == 0 {
			found = true
		}
		return !found
	})
	return found
}

// selectsOnDone looks for a receive from a context's Done() channel —
// `<-ctx.Done()` or `case <-r.Context().Done():` — resolved through type
// info when available, by method name otherwise.
func (p *Package) selectsOnDone(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		un, ok := n.(*ast.UnaryExpr)
		if !ok || un.Op.String() != "<-" {
			return !found
		}
		call, ok := ast.Unparen(un.X).(*ast.CallExpr)
		if !ok || selectionMethodName(call) != "Done" || len(call.Args) != 0 {
			return !found
		}
		obj := p.callee(call)
		if obj == nil || isPkgObj(obj, "context", "Done") {
			found = true
		}
		return !found
	})
	return found
}
