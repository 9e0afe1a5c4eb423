package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// DESIGN.md, README.md and EXPERIMENTS.md name tests, experiments and
// packages. The tests in this file fail when a name they cite no longer
// exists, or when an experiment or a package goes unnamed.

const repoRoot = "../.."

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// docSection returns the body of doc's "## " section whose heading contains
// title, up to the next "## " heading.
func docSection(t *testing.T, doc, title string) string {
	t.Helper()
	for _, sec := range strings.Split(doc, "\n## ")[1:] {
		heading, body, _ := strings.Cut(sec, "\n")
		if strings.Contains(heading, title) {
			return body
		}
	}
	t.Fatalf("no section %q", title)
	return ""
}

// backtickWords returns the whitespace-separated words of doc's `code` spans.
func backtickWords(doc string) []string {
	var words []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(doc, -1) {
		words = append(words, strings.Fields(m[1])...)
	}
	return words
}

// TestDocsCiteExistingTests fails when DESIGN.md, README.md or EXPERIMENTS.md
// cites a Test*/Fuzz* name that no _test.go file defines. A * in a cited name matches
// any run of characters, so TestArbStateNeverStale* cites a family.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	var funcs []string
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range defined.FindAllStringSubmatch(string(b), -1) {
				funcs = append(funcs, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z*][A-Za-z0-9_*]*`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		for _, name := range cited.FindAllString(readRepoFile(t, doc), -1) {
			pat := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, ".*") + "$")
			if !slices.ContainsFunc(funcs, pat.MatchString) {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// declaredNames returns every name the Go files of dir declare: funcs,
// methods, types, consts, vars, struct fields and interface methods.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			}
			return true
		})
	}
	return names
}

// TestDocsCiteExistingNames fails when DESIGN.md, README.md or EXPERIMENTS.md
// cites, in a code span, a `pkg.Name` (or `pkg.Type.Member`) of a package
// internal/pkg that declares no such name, its tests included. Snake-case
// names, the benchmark's per-layer metrics (`rl.replay_sample_ns`), are not
// Go names and are skipped.
func TestDocsCiteExistingNames(t *testing.T) {
	declared := make(map[string]map[string]bool)
	cited := regexp.MustCompile(`(?:^|[^\w./-])([a-z]\w*)((?:\.[A-Za-z_]\w*)+)`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(readRepoFile(t, doc), -1) {
			for _, m := range cited.FindAllStringSubmatch(span[1], -1) {
				pkg, dir := m[1], filepath.Join(repoRoot, "internal", m[1])
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() || strings.Contains(m[2], "_") {
					continue
				}
				if declared[pkg] == nil {
					declared[pkg] = declaredNames(t, dir)
				}
				for _, name := range strings.Split(m[2], ".")[1:] {
					if !declared[pkg][name] {
						t.Errorf("%s cites %s%s: internal/%s declares no %s", doc, pkg, m[2], pkg, name)
					}
				}
			}
		}
	}
}

// TestDocsNameEveryExperiment fails when an entry of Table is not named in a
// code span of EXPERIMENTS.md and of DESIGN.md's per-experiment index.
func TestDocsNameEveryExperiment(t *testing.T) {
	docs := map[string][]string{
		"EXPERIMENTS.md": backtickWords(readRepoFile(t, "EXPERIMENTS.md")),
		"DESIGN.md's per-experiment index": backtickWords(
			docSection(t, readRepoFile(t, "DESIGN.md"), "Per-experiment index")),
	}
	for _, e := range Table {
		for doc, words := range docs {
			if !slices.Contains(words, e.Name) {
				t.Errorf("%s does not name experiment `%s`", doc, e.Name)
			}
		}
	}
}

// TestDesignMapsEveryPackage fails when a directory under cmd/, internal/ or
// examples/ that holds non-test Go files is missing from DESIGN.md's module
// map, where each appears as a code span of its path.
func TestDesignMapsEveryPackage(t *testing.T) {
	moduleMap := docSection(t, readRepoFile(t, "DESIGN.md"), "Module map")
	var dirs []string
	for _, top := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(filepath.Join(repoRoot, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dir, err := filepath.Rel(repoRoot, filepath.Dir(path))
				dirs = append(dirs, filepath.ToSlash(dir))
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(dirs)
	for _, dir := range slices.Compact(dirs) {
		if !strings.Contains(moduleMap, "`"+dir+"`") {
			t.Errorf("DESIGN.md's module map does not list `%s`", dir)
		}
	}
}
