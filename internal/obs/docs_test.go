package obs

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The parity tests keep OBSERVABILITY.md and the package in step: every
// metric family and event kind the package can produce has a table row, and
// every table row names one it can produce.

const observabilityDoc = "../../OBSERVABILITY.md"

// packageDecls parses the package's non-test sources.
func packageDecls(t *testing.T) []ast.Decl {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var decls []ast.Decl
	for _, f := range pkgs["obs"].Files {
		decls = append(decls, f.Decls...)
	}
	return decls
}

// docRows returns the first backticked cell of every table row in the doc
// section headed by heading, matching re's first group.
func docRows(t *testing.T, heading string, re *regexp.Regexp) []string {
	t.Helper()
	raw, err := os.ReadFile(observabilityDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, heading)
	if start < 0 {
		t.Fatalf("OBSERVABILITY.md has no %q section", heading)
	}
	section := doc[start+len(heading):]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var rows []string
	for _, m := range re.FindAllStringSubmatch(section, -1) {
		rows = append(rows, m[1])
	}
	return sortedSet(rows)
}

func sortedSet(xs []string) []string {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// requireSameSet reports every name in one list and not the other.
func requireSameSet(t *testing.T, what string, code, doc []string) {
	t.Helper()
	for _, c := range code {
		if !slices.Contains(doc, c) {
			t.Errorf("%s %q has no OBSERVABILITY.md row", what, c)
		}
	}
	for _, d := range doc {
		if !slices.Contains(code, d) {
			t.Errorf("OBSERVABILITY.md documents %s %q, which the package does not produce", what, d)
		}
	}
}

func TestObservabilityDocMatchesMetrics(t *testing.T) {
	reg := NewRegistry()
	sets := map[string]func(){
		"NewEngineMetrics":   func() { NewEngineMetrics(reg) },
		"NewResourceMetrics": func() { NewResourceMetrics(reg, "r") },
		"NewSparseMetrics":   func() { NewSparseMetrics(reg) },
		"NewSolverMetrics":   func() { NewSolverMetrics(reg, "newton") },
		"NewAdmitMetrics":    func() { NewAdmitMetrics(reg) },
		"NewPlaceMetrics":    func() { NewPlaceMetrics(reg) },
		"NewDistMetrics":     func() { NewDistMetrics(reg) },
		"NewWireMetrics":     func() { NewWireMetrics(reg) },
		"NewStreamMetrics":   func() { NewStreamMetrics(reg) },
		"NewFleetMetrics":    func() { NewFleetMetrics(reg) },
		"NewRecoverMetrics":  func() { NewRecoverMetrics(reg) },
	}
	var declared []string
	for _, d := range packageDecls(t) {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
			strings.HasPrefix(fn.Name.Name, "New") && strings.HasSuffix(fn.Name.Name, "Metrics") {
			declared = append(declared, fn.Name.Name)
		}
	}
	for _, name := range declared {
		if sets[name] == nil {
			t.Fatalf("metric set %s is not registered by this test; add it", name)
		}
	}
	for _, register := range sets {
		register()
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(buf.String(), -1) {
		families = append(families, m[1])
	}
	doc := docRows(t, "## 3. Metrics", regexp.MustCompile("(?m)^\\| `(lla_[a-z0-9_]+)"))
	requireSameSet(t, "metric family", sortedSet(families), doc)
}

func TestObservabilityDocMatchesEvents(t *testing.T) {
	var kinds []string
	for _, d := range packageDecls(t) {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Event") || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					kind, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					kinds = append(kinds, kind)
				}
			}
		}
	}
	if len(kinds) == 0 {
		t.Fatal("found no Event* constants")
	}
	doc := docRows(t, "## 2. Trace events", regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|"))
	requireSameSet(t, "event kind", sortedSet(kinds), doc)
}
