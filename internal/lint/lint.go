// Package lint is delta's repo-specific static-analysis suite: a set of
// analyzers that machine-check the house contracts the test suite can only
// spot-check — bit-identical simulation results at any worker or fleet
// configuration, context threading through everything that blocks,
// lock discipline on the SSE-broadcast paths, bounded metric cardinality,
// and event streams served through internal/sse, resumable and live.
//
// The suite is built on the stdlib toolchain only (go/parser, go/types,
// go/ast via the loader in load.go) so it inherits the module's
// zero-dependency stance. cmd/delta-vet runs every analyzer over ./... and
// exits non-zero on findings; CI runs it as a blocking job.
//
// Findings render as `file:line: [rule] message`. A finding can be
// suppressed — when the code is right and the rule's approximation is
// wrong — with a comment on the flagged line or the line directly above:
//
//	//lint:ignore rule reason
//
// where rule is one analyzer name (or a comma-separated list) and reason
// is mandatory prose explaining why the contract holds anyway. An ignore
// without a reason is itself reported and suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// message phrased as "what breaks and how to fix it".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical text form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one named check run over a loaded, type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// All is the full suite in stable order.
var All = []*Analyzer{
	Determinism,
	CtxFlow,
	LockDiscipline,
	MetricHygiene,
	SSEContract,
}

// ByName resolves a comma-separated rule selection ("determinism,ctxflow")
// against the suite; unknown names error so CI typos fail loudly.
func ByName(selection string) ([]*Analyzer, error) {
	if strings.TrimSpace(selection) == "" {
		return All, nil
	}
	byName := make(map[string]*Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have: %s)", name, RuleNames())
		}
		out = append(out, a)
	}
	return out, nil
}

// RuleNames lists the suite's rule names, comma-separated.
func RuleNames() string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

// Run executes the given analyzers over one package, applies //lint:ignore
// suppressions, and returns the surviving findings sorted by position.
func Run(p *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(p)...)
	}
	diags = append(diags, filterIgnored(p, &diags)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return diags
}

// ignoreRe matches `//lint:ignore rule[,rule...] reason`; the reason group
// is optional so malformed ignores can be reported rather than silently
// doing nothing.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+([\w,-]+)(?:\s+(.*))?$`)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file   string
	line   int
	rules  map[string]bool
	reason string
	pos    token.Position
}

// filterIgnored drops diagnostics covered by a well-formed ignore on the
// same line or the line directly above, rewriting *diags in place. It
// returns extra diagnostics for malformed ignores (missing reason).
func filterIgnored(p *Package, diags *[]Diagnostic) []Diagnostic {
	var directives []ignoreDirective
	var malformed []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.End())
				if strings.TrimSpace(m[2]) == "" {
					malformed = append(malformed, Diagnostic{
						Pos:  pos,
						Rule: "suppress",
						Message: "lint:ignore needs a reason: " +
							"//lint:ignore <rule> <why the contract holds anyway>",
					})
					continue
				}
				rules := make(map[string]bool)
				for _, r := range strings.Split(m[1], ",") {
					rules[strings.TrimSpace(r)] = true
				}
				directives = append(directives, ignoreDirective{
					file: pos.Filename, line: pos.Line, rules: rules,
					reason: strings.TrimSpace(m[2]), pos: pos,
				})
			}
		}
	}
	kept := (*diags)[:0]
	for _, d := range *diags {
		suppressed := false
		for _, dir := range directives {
			if dir.file != d.Pos.Filename || !dir.rules[d.Rule] {
				continue
			}
			if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	*diags = kept
	return malformed
}

// diag builds a Diagnostic at an AST node's position.
func (p *Package) diag(rule string, at ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(at.Pos()),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}
