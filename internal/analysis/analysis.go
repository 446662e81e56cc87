// Package analysis is a self-contained, stdlib-only reimplementation of
// the golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package (a Pass) and reports position-tagged Diagnostics.
//
// The repository deliberately has no third-party dependencies, so instead
// of importing x/tools we mirror the shape of its API on top of go/ast,
// go/types, and go/importer. The cbvet analyzers (see the subdirectories
// determinism, msgfree, hotpath, obsreadonly) are written against this
// package exactly as they would be against x/tools, which keeps a future
// migration mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail. (Shown by `cbvet help`.)
	Doc string

	// Run applies the analyzer to a package. It reports diagnostics via
	// pass.Report / pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass holds the inputs and outputs of one analyzer applied to one
// type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzer
// invariants target simulator code; tests may legitimately use maps,
// rand, and goroutines, so analyzers skip findings in test files.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// simCorePkgs are the deterministic simulator-core packages: everything
// that executes inside a single-goroutine simulated machine and must be
// bit-reproducible run to run. The sweep/service layers (experiments,
// service, obs, metrics) are intentionally excluded — they own the
// worker pools and wall-clock concerns. cluster (and its clustertest
// proof layer) is excluded for the same reason, deliberately: peer RPC
// timeouts, backoff jitter, circuit-breaker cooldowns, and failure
// detection are wall-clock mechanisms by nature, and the cluster may
// never influence result bytes — only where and when a cell resolves.
// That invariance is enforced dynamically instead, by clustertest's
// fault-schedule tests (any seeded drop/delay/dup/partition schedule
// must reproduce the fault-free baseline byte for byte). chaos is in: its fault
// decisions execute inside the machine and must replay bit-identically
// from the seeded RNG. digest and replay are in: a state digest or a
// checkpointed re-execution that
// depends on wall clocks, map order, or goroutine interleaving would
// make recordings unverifiable and bisection verdicts unsound. trace is
// in: replayed windows promise byte-identical rendered traces, so sink
// output must not depend on map order (a ChromeWriter balancing
// truncated episodes at Close once did, and only windowed replay could
// expose it). cycles is in: the accounting hooks run inside the
// machine, the stacks land in Stats, and the profile emission promises
// byte-stable output for identical runs.
var simCorePkgs = map[string]bool{
	"sim": true, "machine": true, "cpu": true, "core": true,
	"isa": true, "mesi": true, "vips": true, "noc": true,
	"cache": true, "mem": true, "memtypes": true, "synclib": true,
	"workload": true, "chaos": true, "digest": true, "replay": true,
	"trace": true, "cycles": true,
}

// IsSimCore reports whether the import path names a simulator-core
// package (one whose code must stay deterministic). Matching is by the
// path segment after "internal/", so it holds for "repro/internal/sim"
// and for analyzer test fixtures checked under synthetic paths like
// "repro/internal/sim/fixture".
func IsSimCore(path string) bool {
	i := strings.Index(path, "internal/")
	if i < 0 {
		return false
	}
	rest := path[i+len("internal/"):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return simCorePkgs[rest]
}

// Directives extracts cbvet/cbsim comment directives from a comment
// group: comment lines of the form "//tool:directive" (no space after
// "//", like //go:noinline). It returns the full directive strings,
// e.g. "cbsim:hotpath".
func Directives(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		text := c.Text
		if !strings.HasPrefix(text, "//") || strings.HasPrefix(text, "// ") {
			continue
		}
		body := strings.TrimPrefix(text, "//")
		if strings.HasPrefix(body, "cbsim:") || strings.HasPrefix(body, "cbvet:") {
			// Allow trailing explanation: "//cbvet:unordered — counts only".
			if i := strings.IndexAny(body, " \t"); i >= 0 {
				body = body[:i]
			}
			out = append(out, body)
		}
	}
	return out
}

// HasDirective reports whether doc carries the given directive
// (e.g. "cbsim:hotpath").
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	for _, d := range Directives(doc) {
		if d == directive {
			return true
		}
	}
	return false
}

// LineDirectives maps source lines to the directives whose comment ends
// on that line or the line above, for statement-level waivers like
// //cbvet:unordered that precede (or trail) a `for ... range` statement.
type LineDirectives struct {
	fset  *token.FileSet
	lines map[int][]string
}

// NewLineDirectives indexes every directive comment in file.
func NewLineDirectives(fset *token.FileSet, file *ast.File) *LineDirectives {
	ld := &LineDirectives{fset: fset, lines: map[int][]string{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, d := range Directives(&ast.CommentGroup{List: []*ast.Comment{c}}) {
				line := fset.Position(c.End()).Line
				ld.lines[line] = append(ld.lines[line], d)
			}
		}
	}
	return ld
}

// Covers reports whether directive appears on the statement's own line
// or the line immediately above it.
func (ld *LineDirectives) Covers(pos token.Pos, directive string) bool {
	line := ld.fset.Position(pos).Line
	for _, d := range ld.lines[line] {
		if d == directive {
			return true
		}
	}
	for _, d := range ld.lines[line-1] {
		if d == directive {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diagnostics by file position for stable output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
