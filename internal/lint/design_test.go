package lint

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// DESIGN.md describes the system one subsystem a section; these tests
// keep it that way. A § with an undotted number names a section of
// DESIGN.md; the paper's sections are cited dotted (§3.4), so they are
// not citations of it.

// designMaxLines is the length DESIGN.md must stay under.
const designMaxLines = 1500

// frontMatter are the titles of DESIGN.md's sections that precede the
// subsystems.
var frontMatter = map[string]bool{
	"What the paper builds":             true,
	"Substitutions (paper → this repo)": true,
	"Module map":                        true,
	"Experiment index":                  true,
}

// citingFiles are the files outside Go sources whose § citations name
// DESIGN.md's sections. Every .go file of the module is scanned too.
var citingFiles = []string{
	"DESIGN.md",
	"Makefile",
	"README.md",
	"EXPERIMENTS.md",
	"ROADMAP.md",
	".claude/skills/verify/SKILL.md",
}

var (
	citeRE    = regexp.MustCompile(`§(\d+)(\.\d+)?`)
	headingRE = regexp.MustCompile(`^## (\d+)\. (.+)$`)
	nameRE    = regexp.MustCompile("`([^`]+)`")
	sectionRE = regexp.MustCompile(`^§(\d+)$`)
)

// danglingCitations returns a message for each undotted § in text whose
// number is not a heading.
func danglingCitations(name, text string, headings map[int]bool) []string {
	var bad []string
	for i, line := range strings.Split(text, "\n") {
		for _, m := range citeRE.FindAllStringSubmatch(line, -1) {
			if m[2] != "" {
				continue // a dotted section is the paper's
			}
			if n, _ := strconv.Atoi(m[1]); !headings[n] {
				bad = append(bad, fmt.Sprintf("%s:%d: §%d names no section of DESIGN.md", name, i+1, n))
			}
		}
	}
	return bad
}

// mapRow is one row of a package table: the packages it names and, in
// DESIGN.md's module map, the section it points at.
type mapRow struct {
	names   []string
	section int
}

// designSections parses DESIGN.md: its headings by number, the module
// map's rows, and what is wrong with the headings — one that is neither
// front matter nor a module-map subsystem, numbers that do not ascend,
// a map row pointing at no subsystem heading, and a file too long.
func designSections(design string) (map[int]bool, []mapRow, []string) {
	var problems []string
	lines := strings.Split(design, "\n")
	if len(lines) >= designMaxLines {
		problems = append(problems, fmt.Sprintf("DESIGN.md is %d lines, over %d: edit the subsystem's section instead of adding one", len(lines), designMaxLines))
	}
	titles := map[int]string{}
	var order []int
	for _, line := range lines {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		m := headingRE.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, fmt.Sprintf("DESIGN.md: heading %q is not \"## N. Title\"", line))
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if len(order) > 0 && n <= order[len(order)-1] {
			problems = append(problems, fmt.Sprintf("DESIGN.md: §%d follows §%d", n, order[len(order)-1]))
		}
		titles[n] = m[2]
		order = append(order, n)
	}
	rows := tableRows(lines, func(line string) bool { return line == "## 3. Module map" })
	subsystem := map[int]bool{}
	for _, r := range rows {
		subsystem[r.section] = true
		if title, ok := titles[r.section]; !ok || frontMatter[title] {
			problems = append(problems, fmt.Sprintf("DESIGN.md module map: %v points at §%d, which is no subsystem heading", r.names, r.section))
		}
	}
	headings := map[int]bool{}
	for _, n := range order {
		headings[n] = true
		if !frontMatter[titles[n]] && !subsystem[n] {
			problems = append(problems, fmt.Sprintf("DESIGN.md: §%d %q is neither front matter nor a module-map subsystem", n, titles[n]))
		}
	}
	return headings, rows, problems
}

// tableRows returns the rows of the first Markdown table after the line
// start accepts: the backticked names of each row's first cell and, when
// its second cell is "§N", that section.
func tableRows(lines []string, start func(string) bool) []mapRow {
	var rows []mapRow
	in, seen := false, false
	for _, line := range lines {
		if !in {
			in = start(line)
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if seen {
				break
			}
			continue
		}
		seen = true
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if strings.HasPrefix(strings.TrimSpace(cells[0]), "---") {
			continue
		}
		var r mapRow
		for _, m := range nameRE.FindAllStringSubmatch(cells[0], -1) {
			r.names = append(r.names, m[1])
		}
		if len(r.names) == 0 {
			continue // the header row
		}
		if len(cells) > 1 {
			if m := sectionRE.FindStringSubmatch(strings.TrimSpace(cells[1])); m != nil {
				r.section, _ = strconv.Atoi(m[1])
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// mapProblems checks one package table against the packages under
// internal/ and cmd/ (want) and every package of the module (exists): a
// name resolves as internal/<name> or as a module path.
func mapProblems(table string, rows []mapRow, want []string, exists map[string]bool) []string {
	var problems []string
	named := map[string]bool{}
	for _, r := range rows {
		for _, n := range r.names {
			switch {
			case exists["internal/"+n]:
				named["internal/"+n] = true
			case exists[n]:
				named[n] = true
			default:
				problems = append(problems, fmt.Sprintf("%s names %q, which is no package", table, n))
			}
		}
	}
	for _, p := range want {
		if !named[p] {
			problems = append(problems, fmt.Sprintf("%s leaves out %s", table, p))
		}
	}
	return problems
}

// goFiles returns the module's Go files by slash path from the root,
// skipping testdata and hidden directories as the loader does.
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			rel, _ := filepath.Rel(root, p)
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// modulePackages returns every directory of the module that holds a
// non-test Go file, by slash path from the root ("." is the root).
func modulePackages(t *testing.T, root string) map[string]bool {
	pkgs := map[string]bool{}
	for _, f := range goFiles(t, root) {
		if !strings.HasSuffix(f, "_test.go") {
			pkgs[path.Dir(f)] = true
		}
	}
	return pkgs
}

// TestDesignCitations: every DESIGN.md § citation in the Go files and
// the documents names a heading of DESIGN.md, and DESIGN.md's headings
// are front matter and module-map subsystems only.
func TestDesignCitations(t *testing.T) {
	headings, _, problems := designSections(readRepoFile(t, "DESIGN.md"))
	for _, p := range problems {
		t.Error(p)
	}
	for _, f := range append(goFiles(t, repoRoot(t)), citingFiles...) {
		for _, p := range danglingCitations(f, readRepoFile(t, f), headings) {
			t.Error(p)
		}
	}
}

// TestModuleMaps: DESIGN.md's module map and README's package table
// each name every package under internal/ and cmd/, and name nothing
// that is not a package.
func TestModuleMaps(t *testing.T) {
	root := repoRoot(t)
	exists := modulePackages(t, root)
	var want []string
	for p := range exists {
		if strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/") {
			want = append(want, p)
		}
	}
	sort.Strings(want)
	_, rows, _ := designSections(readRepoFile(t, "DESIGN.md"))
	readme := strings.Split(readRepoFile(t, "README.md"), "\n")
	tables := map[string][]mapRow{
		"DESIGN.md's module map": rows,
		"README's package table": tableRows(readme, func(line string) bool { return strings.HasPrefix(line, "Package map") }),
	}
	for table, rows := range tables {
		if len(rows) == 0 {
			t.Errorf("%s: no rows found", table)
		}
		for _, p := range mapProblems(table, rows, want, exists) {
			t.Error(p)
		}
	}
}

// TestDesignChecksSeeded: each check fires on the case it exists for.
func TestDesignChecksSeeded(t *testing.T) {
	sec := "§" // split so that this file cites nothing itself
	design := strings.Join([]string{
		"# Design",
		"## 1. What the paper builds",
		"## 3. Module map",
		"| Package | § | Contents |",
		"|---|---|---|",
		"| `sfc` | " + sec + "5 | curves |",
		"| `lfm`, `par` | " + sec + "6 | store |",
		"",
		"## 5. sfc",
		"## 6. lfm",
	}, "\n")
	headings, rows, problems := designSections(design)
	if len(problems) != 0 || len(rows) != 2 || !headings[5] || !headings[6] {
		t.Fatalf("a sound design: headings %v, rows %v, problems %q", headings, rows, problems)
	}
	for _, tc := range []struct{ name, text string }{
		{"a dangling DESIGN.md citation", "// see DESIGN.md " + sec + "99"},
		{"a dangling bare citation", "the fold (" + sec + "99) runs serially"},
	} {
		if got := danglingCitations("x.go", tc.text, headings); len(got) != 1 {
			t.Errorf("%s: %q, want one finding", tc.name, got)
		}
	}
	if got := danglingCitations("x.go", "the paper's "+sec+"3.4 and DESIGN.md "+sec+"5, "+sec+"6(b)", headings); len(got) != 0 {
		t.Errorf("a dotted paper section and live citations: %q, want none", got)
	}
	if _, _, got := designSections(design + "\n## 7. Store each band once, as a k³-tree"); len(got) != 1 {
		t.Errorf("a per-change heading: %q, want one finding", got)
	}
	if _, _, got := designSections(design + strings.Repeat("\nline", designMaxLines)); len(got) != 1 {
		t.Errorf("an overlong DESIGN.md: %q, want one finding", got)
	}
	exists := map[string]bool{"internal/sfc": true, "internal/lfm": true, "internal/par": true, "cmd/qbism": true}
	want := []string{"cmd/qbism", "internal/lfm", "internal/par", "internal/sfc"}
	if got := mapProblems("map", rows, want, exists); len(got) != 1 || !strings.Contains(got[0], "cmd/qbism") {
		t.Errorf("a package missing from a map: %q, want cmd/qbism named", got)
	}
	rows = append(rows, mapRow{names: []string{"cmd/qbism", "netsim"}})
	if got := mapProblems("map", rows, want, exists); len(got) != 1 || !strings.Contains(got[0], "netsim") {
		t.Errorf("a map naming no package: %q, want netsim named", got)
	}
}

// readRepoFile returns a file of the repository by its slash path.
func readRepoFile(t *testing.T, rel string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot(t), filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
