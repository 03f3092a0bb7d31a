package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// repoRoot is the module root, two directories up from this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// loadFixture type-checks one testdata/src fixture directory against
// the real module (so fixtures may import qbism/internal/... packages).
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.load("qbism/lintfixture/"+name, dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// wantAt maps file:line to the expectation regexes declared there.
type wantKey struct {
	file string
	line int
}

func collectWants(t *testing.T, pkg *Package) map[wantKey][]string {
	t.Helper()
	out := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				out[k] = append(out[k], m[1])
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over a fixture and matches its
// unsuppressed diagnostics against the fixture's // want comments,
// both ways.
func checkFixture(t *testing.T, fixture string, a *Analyzer) *Result {
	t.Helper()
	pkg := loadFixture(t, fixture)
	res := Check([]*Package{pkg}, []*Analyzer{a})
	wants := collectWants(t, pkg)
	matched := make(map[wantKey][]bool)
	for k, ws := range wants {
		matched[k] = make([]bool, len(ws))
	}
	for _, d := range res.Unsuppressed() {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for i, w := range wants[k] {
			if matched[k][i] {
				continue
			}
			re, err := regexp.Compile(w)
			if err != nil {
				t.Fatalf("bad want regex %q: %v", w, err)
			}
			if re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !matched[k][i] {
				t.Errorf("%s:%d: missing diagnostic matching %q", k.file, k.line, w)
			}
		}
	}
	return res
}

func TestErrWrapFixture(t *testing.T) {
	res := checkFixture(t, "errwrap", ErrWrapAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
	// The suppressed finding must carry the directive's reason.
	for _, d := range res.Diagnostics {
		if d.Suppressed && !strings.Contains(d.SuppressReason, "suppression path") {
			t.Errorf("suppression reason = %q, want the directive text", d.SuppressReason)
		}
	}
}

func TestCloserFixture(t *testing.T) {
	res := checkFixture(t, "closer", CloserAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

// reseededRE is the header line of a fixture file re-seeded from a real
// defect: it names the commit whose tree held the defect.
var reseededRE = regexp.MustCompile(`^// Re-seeded from commit [0-9a-f]{7,40}\b`)

// reseededFixture returns the file of fixture directory dir that holds a
// re-seeded defect: its header names the commit it was taken from, and
// it declares at least one // want.
func reseededFixture(dir string) (string, error) {
	fset := token.NewFileSet()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return "", err
	}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return "", err
		}
		if f.Doc == nil || !reseededRE.MatchString(f.Doc.List[0].Text) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if wantRE.MatchString(c.Text) {
					return name, nil
				}
			}
		}
		return "", fmt.Errorf("%s names its commit but declares no // want", name)
	}
	return "", fmt.Errorf("no file under %s starts \"// Re-seeded from commit <hash>\"", dir)
}

// TestEveryAnalyzerHasReseededDefect keeps the census's rule (DESIGN.md
// §17): an analyzer stays in the suite only while its fixture holds a
// defect it caught in this tree's history, re-seeded from the commit
// that held it, with the diagnostic it gives.
func TestEveryAnalyzerHasReseededDefect(t *testing.T) {
	for _, a := range Analyzers() {
		name, err := reseededFixture(filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Errorf("analyzer %s: %v", a.Name, err)
			continue
		}
		t.Logf("analyzer %s: %s", a.Name, name)
		checkFixture(t, a.Name, a) // every want, the re-seeded ones too, is a diagnostic
	}
	// A fixture that is only synthetic fails the rule.
	if name, err := reseededFixture(filepath.Join("testdata", "src", "badignore")); err == nil {
		t.Errorf("synthetic fixture %s passed as re-seeded", name)
	}
}

func TestMalformedIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "badignore")
	res := Check([]*Package{pkg}, nil)
	var bad []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Check != "ignore" {
			t.Errorf("unexpected check %q: %s", d.Check, d)
			continue
		}
		if strings.HasPrefix(d.Message, "malformed") {
			bad = append(bad, d)
		}
	}
	if len(bad) != 2 {
		t.Fatalf("malformed-ignore diagnostics = %d, want 2: %v", len(bad), bad)
	}
	for _, d := range bad {
		if !strings.Contains(d.Message, "//lint:ignore <check> <reason>") {
			t.Errorf("message %q does not explain the expected syntax", d.Message)
		}
	}
}

// TestUnusedIgnoreDirectives pins the directives that suppress nothing:
// one naming no check of the suite is reported whatever ran, and one
// naming an analyzer that ran and found nothing on its lines is stale.
func TestUnusedIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "badignore")
	ignoreMsgs := func(res *Result) map[int]string {
		out := make(map[int]string)
		for _, d := range res.Unsuppressed() {
			if d.Check != "ignore" {
				t.Errorf("unexpected diagnostic: %s", d)
			} else if !strings.HasPrefix(d.Message, "malformed") {
				out[d.Pos.Line] = d.Message
			}
		}
		return out
	}
	line := func(fn string) int {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
					return pkg.Fset.Position(fd.Pos()).Line - 1
				}
			}
		}
		t.Fatalf("fixture has no func %s", fn)
		return 0
	}
	unknown := map[int]string{
		line("unknownCheck"): `"determinism", which is no check of this suite`,
		line("typo"):         `"closr", which is no check of this suite`,
	}
	want := map[int]string{
		line("stale"):      "//lint:ignore closer suppresses nothing",
		line("outOfScope"): "//lint:ignore errwrap suppresses nothing",
	}
	for l, m := range unknown {
		want[l] = m
	}
	for name, tc := range map[string]struct {
		analyzers []*Analyzer
		want      map[int]string
	}{
		"no analyzer ran": {nil, unknown},
		"the full suite":  {Analyzers(), want},
	} {
		res := Check([]*Package{pkg}, tc.analyzers)
		got := ignoreMsgs(res)
		for l, m := range tc.want {
			if !strings.Contains(got[l], m) {
				t.Errorf("%s: line %d: got %q, want it to contain %q", name, l, got[l], m)
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d unused-directive diagnostics, want %d: %v", name, len(got), len(tc.want), got)
		}
	}
	// The directive that suppressed the discarded file is not reported,
	// and it and the stale and unknown ones are all inventoried.
	res := Check([]*Package{pkg}, Analyzers())
	if res.NumSuppressed() != 1 {
		t.Errorf("suppressed = %d, want 1", res.NumSuppressed())
	}
	if len(res.Ignores) != 5 {
		t.Errorf("inventoried %d well-formed directives, want 5", len(res.Ignores))
	}
}

// TestRepoClean dogfoods the full suite over the real tree: the repo
// must have zero unsuppressed diagnostics, and every suppression must
// carry a reason (the collector enforces the reason at parse time, so
// here we just assert it survived into the diagnostic).
func TestRepoClean(t *testing.T) {
	res, err := CheckModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Unsuppressed() {
		t.Errorf("repo not lint-clean: %s", d)
	}
	for _, d := range res.Diagnostics {
		if d.Suppressed && strings.TrimSpace(d.SuppressReason) == "" {
			t.Errorf("suppression without reason at %s", d.Pos)
		}
	}
	if res.Files == 0 {
		t.Fatal("loader found no files")
	}
	if !strings.Contains(res.Summary(), fmt.Sprintf("%d files", res.Files)) {
		t.Errorf("summary %q does not include the file count", res.Summary())
	}
	// Every analyzer must actually have run over the repo: each records
	// a timing entry.
	ran := make(map[string]bool)
	for _, tm := range res.Timings {
		ran[tm.Name] = true
	}
	for _, a := range Analyzers() {
		if !ran[a.Name] {
			t.Errorf("analyzer %s recorded no timing — did it run?", a.Name)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	// Every ignore directive in the tree is inventoried with a reason,
	// and the inventory is exactly the checked-in budget (the ratchet
	// `make lint-ignores` enforces).
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "lint_ignore_budget.txt"))
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("lint_ignore_budget.txt: %v", err)
	}
	if len(res.Ignores) != budget {
		t.Errorf("%d ignore directives in the tree, budget %d: check in the count", len(res.Ignores), budget)
	}
	for _, ig := range res.Ignores {
		if strings.TrimSpace(ig.Reason) == "" || ig.Check == "" {
			t.Errorf("ignore inventory entry without check/reason: %+v", ig)
		}
	}
}

// TestSummaryFormat pins the exact one-line summary shape the Makefile
// lint target promises in CI logs, including the wall-time suffix.
func TestSummaryFormat(t *testing.T) {
	pkg := loadFixture(t, "errwrap")
	res := Check([]*Package{pkg}, []*Analyzer{ErrWrapAnalyzer})
	want := fmt.Sprintf("qbismlint: %d files, %d diagnostics, %d suppressed in %s",
		len(pkg.Files), len(res.Unsuppressed()), res.NumSuppressed(),
		res.Elapsed.Round(time.Millisecond))
	if res.Summary() != want {
		t.Errorf("Summary() = %q, want %q", res.Summary(), want)
	}
	if res.NumSuppressed()+len(res.Unsuppressed()) != len(res.Diagnostics) {
		t.Error("suppressed + unsuppressed != total")
	}
}

// TestJSONSchema pins the stable -json wire shape: frozen field names,
// a never-null diagnostics array, and counts that match the result.
func TestJSONSchema(t *testing.T) {
	pkg := loadFixture(t, "errwrap")
	res := Check([]*Package{pkg}, []*Analyzer{ErrWrapAnalyzer})
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Files        int   `json:"files"`
		Unsuppressed int   `json:"unsuppressed"`
		Suppressed   int   `json:"suppressed"`
		ElapsedMS    int64 `json:"elapsed_ms"`
		Diagnostics  []struct {
			File           string `json:"file"`
			Line           int    `json:"line"`
			Col            int    `json:"col"`
			Check          string `json:"check"`
			Message        string `json:"message"`
			Suppressed     bool   `json:"suppressed"`
			SuppressReason string `json:"suppress_reason"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Files != res.Files || got.Unsuppressed != len(res.Unsuppressed()) || got.Suppressed != res.NumSuppressed() {
		t.Errorf("JSON counts = %d/%d/%d, want %d/%d/%d",
			got.Files, got.Unsuppressed, got.Suppressed,
			res.Files, len(res.Unsuppressed()), res.NumSuppressed())
	}
	if len(got.Diagnostics) != len(res.Diagnostics) {
		t.Fatalf("JSON diagnostics = %d, want %d", len(got.Diagnostics), len(res.Diagnostics))
	}
	for i, d := range res.Diagnostics {
		j := got.Diagnostics[i]
		if j.File != d.Pos.Filename || j.Line != d.Pos.Line || j.Col != d.Pos.Column ||
			j.Check != d.Check || j.Message != d.Message || j.Suppressed != d.Suppressed {
			t.Errorf("diagnostic %d round-trip mismatch: %+v vs %s", i, j, d)
		}
	}
	// An empty result must still serialize diagnostics as [], not null.
	empty := &Result{}
	raw, err = empty.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"diagnostics": []`) {
		t.Errorf("empty result JSON lacks a non-null diagnostics array: %s", raw)
	}
}

// TestDiagnosticsSorted pins the position ordering of Check output.
func TestDiagnosticsSorted(t *testing.T) {
	pkg := loadFixture(t, "closer")
	res := Check([]*Package{pkg}, Analyzers())
	ds := res.Diagnostics
	for i := 1; i < len(ds); i++ {
		a, b := ds[i-1].Pos, ds[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", ds[i-1], ds[i])
		}
	}
	if len(ds) == 0 {
		t.Fatal("expected diagnostics from the closer fixture")
	}
}

// TestLoaderRejectsMissingModule pins loader error handling.
func TestLoaderRejectsMissingModule(t *testing.T) {
	if _, err := NewLoader(t.TempDir()); err == nil {
		t.Fatal("NewLoader on a dir without go.mod: expected error")
	}
}

// TestLoadAllFindsKnownPackages sanity-checks module discovery.
func TestLoadAllFindsKnownPackages(t *testing.T) {
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			seen[filepath.Base(p.Fset.Position(f.Pos()).Filename)] = true
		}
		seen[p.Path] = true
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded without types/info/files", p.Path)
		}
	}
	// A file only the race build includes is linted too.
	if !seen["poison_race.go"] {
		t.Error("LoadAll left out medserver's race-only poison_race.go")
	}
	for _, want := range []string{
		"qbism/internal/lfm",
		"qbism/internal/sdb",
		"qbism/internal/obs",
		"qbism/internal/lint",
		"qbism/cmd/qbismlint",
	} {
		if !seen[want] {
			t.Errorf("LoadAll missed %s", want)
		}
	}
}

// TestIgnoreCoversSameAndNextLine pins the suppression window.
func TestIgnoreCoversSameAndNextLine(t *testing.T) {
	pkg := loadFixture(t, "errwrap")
	sup := &suppressions{}
	sup.collect(pkg, new([]Diagnostic))
	if len(sup.directives) == 0 {
		t.Fatal("no directives collected")
	}
	d := sup.directives[0]
	pos := func(line int) (string, bool) {
		return sup.covers(token.Position{Filename: d.pos.Filename, Line: line}, "errwrap")
	}
	if _, ok := pos(d.pos.Line); !ok {
		t.Error("directive does not cover its own line")
	}
	if _, ok := pos(d.pos.Line + 1); !ok {
		t.Error("directive does not cover the following line")
	}
	if _, ok := pos(d.pos.Line + 2); ok {
		t.Error("directive must not cover two lines down")
	}
	if _, ok := sup.covers(token.Position{Filename: d.pos.Filename, Line: d.pos.Line + 1}, "closer"); ok {
		t.Error("directive must not cover other checks")
	}
}

// guard against accidental fixture drift: every fixture package must
// still parse with comments attached (want comments live there).
func TestFixturesKeepComments(t *testing.T) {
	for _, a := range Analyzers() {
		name := a.Name
		pkg := loadFixture(t, name)
		total := 0
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool { return true })
			total += len(f.Comments)
		}
		if total == 0 {
			t.Errorf("fixture %s lost its comments", name)
		}
	}
}
