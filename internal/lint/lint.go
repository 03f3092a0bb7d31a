// Package lint is qbism's repo-aware static-analysis suite: a
// zero-dependency, vet-style analyzer driver plus the two analyzers
// that have each caught a real defect in this tree — errwrap (an error
// formatted with %v where errors.Is needs %w) and closer (a resource not
// released on every path). DESIGN.md §17 describes them and the census
// that kept them.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"
)

// An Analyzer checks one invariant over every loaded package; Run
// reports diagnostics through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos            token.Position
	Check          string // analyzer name
	Message        string
	Suppressed     bool
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// A Pass is one analyzer run over every loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	fset  *token.FileSet
	diags *[]Diagnostic
	sup   *suppressions
}

// Report records a diagnostic at pos. If an applicable
// //lint:ignore directive covers it, the diagnostic is kept but marked
// suppressed.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:     p.fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	}
	d.SuppressReason, d.Suppressed = p.sup.covers(d.Pos, d.Check)
	*p.diags = append(*p.diags, d)
}

// AnalyzerTiming is one analyzer's cumulative wall time across the run.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// IgnoreEntry is one //lint:ignore directive found in the tree, whether
// or not it suppressed anything this run.
type IgnoreEntry struct {
	File   string
	Line   int
	Check  string
	Reason string
}

// Result is the outcome of running analyzers over a package set.
type Result struct {
	Files       int
	Diagnostics []Diagnostic // all findings, suppressed included, sorted by position

	// Ignores inventories every //lint:ignore directive seen, sorted by
	// position — the `make lint-ignores` budget reads this.
	Ignores []IgnoreEntry

	// Elapsed is total analysis wall time; Timings breaks it down per
	// analyzer in run order.
	Elapsed time.Duration
	Timings []AnalyzerTiming
}

// Unsuppressed returns the findings not covered by an ignore directive.
func (r *Result) Unsuppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// NumSuppressed counts the findings covered by ignore directives.
func (r *Result) NumSuppressed() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Suppressed {
			n++
		}
	}
	return n
}

// Summary renders the one-line log summary, including analysis wall
// time so CI logs show when the suite gets slow.
func (r *Result) Summary() string {
	return fmt.Sprintf("qbismlint: %d files, %d diagnostics, %d suppressed in %s",
		r.Files, len(r.Unsuppressed()), r.NumSuppressed(), r.Elapsed.Round(time.Millisecond))
}

// diagnosticJSON is the stable wire shape of one diagnostic: the
// contract for -json consumers (CI, editors). Field names are frozen.
type diagnosticJSON struct {
	File           string `json:"file"`
	Line           int    `json:"line"`
	Col            int    `json:"col"`
	Check          string `json:"check"`
	Message        string `json:"message"`
	Suppressed     bool   `json:"suppressed"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

type resultJSON struct {
	Files        int              `json:"files"`
	Unsuppressed int              `json:"unsuppressed"`
	Suppressed   int              `json:"suppressed"`
	ElapsedMS    int64            `json:"elapsed_ms"`
	Diagnostics  []diagnosticJSON `json:"diagnostics"`
}

// JSON renders the result in the stable machine-readable schema used
// by `qbismlint -json`: one object with file/line/col/check/message/
// suppressed per diagnostic plus the summary counts.
func (r *Result) JSON() ([]byte, error) {
	out := resultJSON{
		Files:        r.Files,
		Unsuppressed: len(r.Unsuppressed()),
		Suppressed:   r.NumSuppressed(),
		ElapsedMS:    r.Elapsed.Milliseconds(),
		Diagnostics:  []diagnosticJSON{}, // [] not null when empty
	}
	for _, d := range r.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, diagnosticJSON{
			File:           d.Pos.Filename,
			Line:           d.Pos.Line,
			Col:            d.Pos.Column,
			Check:          d.Check,
			Message:        d.Message,
			Suppressed:     d.Suppressed,
			SuppressReason: d.SuppressReason,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// Analyzers returns the full analyzer suite in run order. Each one
// holds, in its testdata fixture, a defect it caught in this tree's
// history (TestEveryAnalyzerHasReseededDefect).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ErrWrapAnalyzer,
		CloserAnalyzer,
	}
}

// Check runs the given analyzers over the packages and returns all
// diagnostics, sorted by file/line/column. //lint:ignore directives are
// themselves checked: one missing its check name or reason, one naming
// no analyzer of the suite, and one whose analyzer ran and reported
// nothing on its lines are each an "ignore" diagnostic.
func Check(pkgs []*Package, analyzers []*Analyzer) *Result {
	start := time.Now()
	res := &Result{}
	var diags []Diagnostic
	sup := &suppressions{}
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		res.Files += len(pkg.Files)
		sup.collect(pkg, &diags)
	}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		t0 := time.Now()
		a.Run(&Pass{Analyzer: a, Pkgs: pkgs, fset: fset, diags: &diags, sup: sup})
		res.Timings = append(res.Timings, AnalyzerTiming{Name: a.Name, Elapsed: time.Since(t0)})
		ran[a.Name] = true
	}
	diags = append(diags, sup.unused(ran)...)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	res.Diagnostics = diags
	for _, d := range sup.directives {
		res.Ignores = append(res.Ignores, IgnoreEntry{
			File: d.pos.Filename, Line: d.pos.Line, Check: d.check, Reason: d.reason,
		})
	}
	sort.SliceStable(res.Ignores, func(i, j int) bool {
		if res.Ignores[i].File != res.Ignores[j].File {
			return res.Ignores[i].File < res.Ignores[j].File
		}
		return res.Ignores[i].Line < res.Ignores[j].Line
	})
	res.Elapsed = time.Since(start)
	return res
}

// CheckModule loads every package under moduleRoot and runs the full
// analyzer suite.
func CheckModule(moduleRoot string) (*Result, error) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	return Check(pkgs, Analyzers()), nil
}

// ignoreDirective is one parsed //lint:ignore comment. It covers
// diagnostics for the named check on its own line and on the line
// immediately after (so it can sit above the offending statement or at
// the end of its line).
type ignoreDirective struct {
	pos    token.Position
	check  string
	reason string
	used   bool // it covered a diagnostic this run
}

type suppressions struct {
	directives []ignoreDirective
}

const ignorePrefix = "//lint:ignore"

// collect scans a package's comments for //lint:ignore directives.
// Directives missing a check name or a reason are reported as
// diagnostics (an unreasoned suppression is itself a violation).
func (s *suppressions) collect(pkg *Package, diags *[]Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				check, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if check == "" || reason == "" {
					*diags = append(*diags, ignoreDiagnostic(pos, "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\""))
					continue
				}
				s.directives = append(s.directives, ignoreDirective{pos: pos, check: check, reason: reason})
			}
		}
	}
}

// covers reports whether an ignore directive applies to a diagnostic of
// the given check at the given position, and returns its reason. The
// directive is marked used.
func (s *suppressions) covers(pos token.Position, check string) (string, bool) {
	for i := range s.directives {
		d := &s.directives[i]
		if d.pos.Filename != pos.Filename || d.check != check {
			continue
		}
		if pos.Line == d.pos.Line || pos.Line == d.pos.Line+1 {
			d.used = true
			return d.reason, true
		}
	}
	return "", false
}

// unused reports the directives that suppressed nothing: one naming a
// check that no analyzer of the suite has (a typo, or a deleted
// analyzer), and one whose analyzer ran and found nothing on its lines.
// Either would otherwise sit in the tree, and in the budget, unread.
func (s *suppressions) unused(ran map[string]bool) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, d := range s.directives {
		switch {
		case !known[d.check]:
			out = append(out, ignoreDiagnostic(d.pos, fmt.Sprintf("//lint:ignore names %q, which is no check of this suite", d.check)))
		case ran[d.check] && !d.used:
			out = append(out, ignoreDiagnostic(d.pos, fmt.Sprintf("//lint:ignore %s suppresses nothing; delete it", d.check)))
		}
	}
	return out
}

func ignoreDiagnostic(pos token.Position, msg string) Diagnostic {
	return Diagnostic{Pos: pos, Check: "ignore", Message: msg}
}
