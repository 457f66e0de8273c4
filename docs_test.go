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

// maxChangeEntry is the most bytes one CHANGES.md entry may hold: what
// changed, the tests removed or re-recorded, and the headline number.
// Tables and per-run prose belong in git history and the benchmark reports.
const maxChangeEntry = 1200

// TestChangesEntriesAreShort fails on any CHANGES.md entry — a top-level
// "- " item with its continuation lines — longer than maxChangeEntry bytes.
func TestChangesEntriesAreShort(t *testing.T) {
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "- ") || len(entries) == 0 {
			entries = append(entries, line)
		} else {
			entries[len(entries)-1] += "\n" + line
		}
	}
	for _, e := range entries {
		if n := len(strings.TrimSpace(e)); n > maxChangeEntry {
			t.Errorf("CHANGES.md entry of %d bytes (cap %d): %.80s…", n, maxChangeEntry, e)
		}
	}
}
