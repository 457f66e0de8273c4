package lla

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference-style and
// autolinks are out of scope; the repo's docs use inline links.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinks fails on dead relative links in any tracked markdown file:
// a link to a file or directory that does not exist means a doc rotted
// against the tree. External URLs and pure anchors are not checked.
func TestDocsLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — is the test running at the repo root?")
	}

	for _, md := range mdFiles {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			switch {
			case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
				continue // external
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

// TestProtocolCoversFrameTypes keeps PROTOCOL.md honest: every frame type
// the codec can emit — each Frame* code constant of internal/wire/wire.go
// but FrameMagic — must appear in the spec by name (FrameRejoinAck is
// REJOIN_ACK) and by its hex code. Adding a frame type without documenting it
// fails here.
func TestProtocolCoversFrameTypes(t *testing.T) {
	raw, err := os.ReadFile("PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	spec := string(raw)
	f, err := parser.ParseFile(token.NewFileSet(), "internal/wire/wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := make(map[string]uint64)
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, s := range g.Specs {
				v := s.(*ast.ValueSpec)
				for i, n := range v.Names {
					if !strings.HasPrefix(n.Name, "Frame") || n.Name == "FrameMagic" || i >= len(v.Values) {
						continue
					}
					lit, ok := v.Values[i].(*ast.BasicLit)
					if !ok {
						t.Fatalf("%s is not a literal code", n.Name)
					}
					code, err := strconv.ParseUint(lit.Value, 0, 8)
					if err != nil {
						t.Fatalf("%s: %v", n.Name, err)
					}
					name := regexp.MustCompile(`(.)([A-Z])`).ReplaceAllString(strings.TrimPrefix(n.Name, "Frame"), "${1}_$2")
					types[strings.ToUpper(name)] = code
				}
			}
		}
	}
	if len(types) < 8 {
		t.Fatalf("found %d frame types in internal/wire/wire.go, want the 8 of PROTOCOL.md §3 at least: %v", len(types), types)
	}
	for name, code := range types {
		if !strings.Contains(spec, name) {
			t.Errorf("PROTOCOL.md does not mention frame type %s", name)
		}
		if hex := fmt.Sprintf("0x%02X", code); !strings.Contains(spec, hex) {
			t.Errorf("PROTOCOL.md does not document code %s (frame type %s)", hex, name)
		}
	}
}

// CHANGES.md caps. maxChangeEntry is the most bytes one entry may hold:
// what changed, the tests removed or re-recorded, and the headline number.
// maxChangeGroup caps everything one PR adds, its FOUND and MENDED lines
// included, and maxOldEntry an entry of a PR before oldChangeLabel, whose
// detail lives in git history. Tables and per-run prose belong in git
// history and the benchmark reports.
const (
	maxChangeEntry = 1200
	maxChangeGroup = 2400
	maxOldEntry    = 400
	oldChangeLabel = 50
)

// changeLabel is the PR or ISSUE number an entry opens with.
var changeLabel = regexp.MustCompile(`^- (?:PR|ISSUE) (\d+)\b`)

// TestChangesEntriesAreShort fails on any CHANGES.md entry — a top-level
// "- " item, FOUND or MENDED line with its continuation lines — longer than
// its cap, and on any PR's group of entries, the FOUND and MENDED lines
// below its items joining it, longer than maxChangeGroup.
func TestChangesEntriesAreShort(t *testing.T) {
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		text  string
		label int // -1 before the first label
	}
	var entries []entry
	label := -1
	for _, line := range strings.Split(string(raw), "\n") {
		if m := changeLabel.FindStringSubmatch(line); m != nil {
			label, _ = strconv.Atoi(m[1])
		}
		if strings.HasPrefix(line, "- ") || strings.HasPrefix(line, "FOUND") || strings.HasPrefix(line, "MENDED") || len(entries) == 0 {
			entries = append(entries, entry{line, label})
		} else {
			entries[len(entries)-1].text += "\n" + line
		}
	}
	groups := map[int]int{}
	for _, e := range entries {
		n := len(strings.TrimSpace(e.text))
		limit := maxChangeEntry
		if e.label < oldChangeLabel {
			limit = maxOldEntry
		}
		if n > limit {
			t.Errorf("CHANGES.md entry of %d bytes (cap %d): %.80s…", n, limit, e.text)
		}
		groups[e.label] += n
	}
	for label, n := range groups {
		if n > maxChangeGroup {
			t.Errorf("CHANGES.md PR %d holds %d bytes (cap %d)", label, n, maxChangeGroup)
		}
	}
}

// rootMarkdownBudget is the most bytes the markdown files at the repository
// root may hold together, every planning document included: their size when
// the bound last fell. The goal is 150 KB; the bound may only fall.
const rootMarkdownBudget = 211_154

// TestRootMarkdownBudget fails when the root markdown grows past its budget:
// a document that grows must pay for it by shrinking another.
func TestRootMarkdownBudget(t *testing.T) {
	mds, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, md := range mds {
		fi, err := os.Stat(md)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	t.Logf("%d root markdown files, %d B (budget %d)", len(mds), total, rootMarkdownBudget)
	if total > rootMarkdownBudget {
		t.Errorf("root markdown holds %d B, budget %d: shrink a document before growing one", total, rootMarkdownBudget)
	}
}
