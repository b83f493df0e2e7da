// Package analysis implements quack-lint: a suite of static analyzers
// that encode the engine's invariants — deterministic output ordering,
// paired resource accounting, consistent atomic access, allocation-free
// hot paths and checked I/O errors — on top of the standard library's
// go/parser and go/types only. Each analyzer is a separate file with a
// golden-diagnostic fixture package under testdata/src; the clean-corpus
// test pins the real tree at zero diagnostics.
//
// Suppression: a diagnostic may be silenced with a directive comment
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — a directive without one is itself a diagnostic — and the
// CLI counts every suppression it honors, so waivers stay visible.
package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant check. Run inspects the package through
// pass and reports findings via pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`

	// SuppressReason is set when a lint:ignore directive silenced the
	// diagnostic; such diagnostics move to Result.Suppressed.
	SuppressReason string `json:"suppress_reason,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Result splits a run's findings into active diagnostics (fail the
// build) and honored suppressions (reported, counted, non-fatal).
type Result struct {
	Diags      []Diagnostic
	Suppressed []Diagnostic
}

// Run applies every analyzer to every package and resolves suppression
// directives. Malformed directives surface as "lintignore" diagnostics.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Package: pkg, analyzer: a, diags: &raw}
			a.Run(pass)
		}
	}
	// Resolve suppressions: a directive matches when it names the
	// analyzer (or "all") and sits on the diagnostic's line or the line
	// above it in the same file.
	var res Result
	directives := map[string]map[int]*ignoreDirective{}
	for _, pkg := range pkgs {
		dirs, malformed := scanDirectives(pkg)
		res.Diags = append(res.Diags, malformed...)
		for file, byLine := range dirs {
			directives[file] = byLine
		}
	}
	for _, d := range raw {
		if dir := matchDirective(directives[d.Pos.Filename], d); dir != nil {
			d.SuppressReason = dir.reason
			res.Suppressed = append(res.Suppressed, fill(d))
			continue
		}
		res.Diags = append(res.Diags, fill(d))
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res
}

func fill(d Diagnostic) Diagnostic {
	d.File = d.Pos.Filename
	d.Line = d.Pos.Line
	d.Col = d.Pos.Column
	return d
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers []string
	reason    string
}

func (d *ignoreDirective) matches(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore(\s+(\S+))?(\s+(.*\S))?\s*$`)

// scanDirectives collects lint:ignore directives per file keyed by
// line, and returns diagnostics for malformed ones (missing analyzer
// name or missing reason).
func scanDirectives(pkg *Package) (map[string]map[int]*ignoreDirective, []Diagnostic) {
	out := map[string]map[int]*ignoreDirective{}
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil || m[2] == "" || m[4] == "" {
					malformed = append(malformed, fill(Diagnostic{
						Pos:      pos,
						Analyzer: "lintignore",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer>[,<analyzer>] <reason>\" with a non-empty reason",
					}))
					continue
				}
				dir := &ignoreDirective{
					analyzers: strings.Split(m[2], ","),
					reason:    m[4],
				}
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]*ignoreDirective{}
				}
				out[pos.Filename][pos.Line] = dir
			}
		}
	}
	return out, malformed
}

func matchDirective(byLine map[int]*ignoreDirective, d Diagnostic) *ignoreDirective {
	if byLine == nil {
		return nil
	}
	if dir := byLine[d.Pos.Line]; dir != nil && dir.matches(d.Analyzer) {
		return dir
	}
	if dir := byLine[d.Pos.Line-1]; dir != nil && dir.matches(d.Analyzer) {
		return dir
	}
	return nil
}

// All returns every engine-invariant analyzer in the suite.
func All() []*Analyzer {
	return []*Analyzer{
		Detorder,
		Pairedres,
		Atomicfield,
		Hotpath,
		Erracc,
	}
}
