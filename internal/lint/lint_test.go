package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
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
	if a.Match != nil && !a.Match(pkg) {
		t.Fatalf("analyzer %s does not match fixture package %s", a.Name, pkg.Name)
	}
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

func TestDeterminismFixture(t *testing.T) {
	res := checkFixture(t, "determinism", DeterminismAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

func TestSpanPairFixture(t *testing.T) {
	res := checkFixture(t, "spanpair", SpanPairAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

func TestLockGuardFixture(t *testing.T) {
	res := checkFixture(t, "lockguard", LockGuardAnalyzer)
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

func TestErrWrapFixture(t *testing.T) {
	res := checkFixture(t, "errwrap", ErrWrapAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

func TestOpProtoFixture(t *testing.T) {
	checkFixture(t, "opproto", OpProtoAnalyzer)
}

func TestCloserFixture(t *testing.T) {
	res := checkFixture(t, "closer", CloserAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

func TestGoExitFixture(t *testing.T) {
	res := checkFixture(t, "goexit", GoExitAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

func TestLockOrderFixture(t *testing.T) {
	res := checkFixture(t, "lockorder", LockOrderAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

func TestAtomicMixFixture(t *testing.T) {
	res := checkFixture(t, "atomicmix", AtomicMixAnalyzer)
	if got := res.NumSuppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
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
		bad = append(bad, d)
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
	// The interprocedural analyzers must actually have run over the
	// repo: each records a timing entry.
	ran := make(map[string]bool)
	for _, tm := range res.Timings {
		ran[tm.Name] = true
	}
	for _, name := range []string{"closer", "goexit", "lockorder", "atomicmix"} {
		if !ran[name] {
			t.Errorf("analyzer %s recorded no timing — did it run?", name)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	// Every ignore directive in the tree is inventoried with a reason.
	if len(res.Ignores) == 0 {
		t.Error("no ignore directives inventoried; the repo has several")
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
	pkg := loadFixture(t, "determinism")
	res := Check([]*Package{pkg}, Analyzers())
	ds := res.Diagnostics
	for i := 1; i < len(ds); i++ {
		a, b := ds[i-1].Pos, ds[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", ds[i-1], ds[i])
		}
	}
	if len(ds) == 0 {
		t.Fatal("expected diagnostics from the determinism fixture")
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
		seen[p.Path] = true
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded without types/info/files", p.Path)
		}
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
	pkg := loadFixture(t, "determinism")
	sup := collectSuppressions(pkg, new([]Diagnostic))
	if len(sup.directives) == 0 {
		t.Fatal("no directives collected")
	}
	d := sup.directives[0]
	pos := func(line int) (string, bool) {
		return sup.covers(token.Position{Filename: d.file, Line: line}, "determinism")
	}
	if _, ok := pos(d.line); !ok {
		t.Error("directive does not cover its own line")
	}
	if _, ok := pos(d.line + 1); !ok {
		t.Error("directive does not cover the following line")
	}
	if _, ok := pos(d.line + 2); ok {
		t.Error("directive must not cover two lines down")
	}
	if _, ok := sup.covers(token.Position{Filename: d.file, Line: d.line + 1}, "spanpair"); ok {
		t.Error("directive must not cover other checks")
	}
}

// guard against accidental fixture drift: every fixture package must
// still parse with comments attached (want comments live there).
func TestFixturesKeepComments(t *testing.T) {
	for _, name := range []string{"determinism", "spanpair", "lockguard", "errwrap", "opproto", "closer", "goexit", "lockorder", "atomicmix"} {
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
