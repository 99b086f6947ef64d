package lpm

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lpm/internal/fabric"
)

// TestReadmeListsEveryCommandAndExample: the README's tool and example
// tables name exactly the directories under cmd/ and examples/, so a
// front-end cannot be added or deleted without its row.
func TestReadmeListsEveryCommandAndExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:cmd|examples)/[^`]+)` \\|").FindAllSubmatch(readme, -1) {
		listed = append(listed, string(m[1]))
	}
	var dirs []string
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, parent+"/"+e.Name())
			}
		}
	}
	sort.Strings(listed)
	sort.Strings(dirs)
	if !reflect.DeepEqual(listed, dirs) {
		t.Fatalf("README tables list %v; the tree has %v", listed, dirs)
	}
}

// TestReadmeNamesExactlyTheShardFlags: every -shard* token in the README
// is a flag fabric.BindShardFlags registers, and every one it registers
// is named there, so a deleted flag cannot linger in the docs.
func TestReadmeNamesExactlyTheShardFlags(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?:^|[^\w-])-(shard[\w-]*)`).FindAllSubmatch(readme, -1) {
		named[string(m[1])] = true
	}
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	fabric.BindShardFlags(fs)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	if !reflect.DeepEqual(named, registered) {
		t.Fatalf("README names -%v; BindShardFlags registers -%v", keys(named), keys(registered))
	}
}

// TestDocsNameOnlyExportedFacade: every lpm.X in README.md, DESIGN.md and
// EXPERIMENTS.md is an exported identifier of the root package's
// non-test files, so a deleted facade name cannot linger in the docs.
func TestDocsNameOnlyExportedFacade(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					exported[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						exported[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							exported[n.Name] = true
						}
					}
				}
			}
		}
	}
	ref := regexp.MustCompile(`\blpm\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(text, -1) {
			if name := string(m[1]); !exported[name] {
				t.Errorf("%s names lpm.%s, which the root package does not export", doc, name)
			}
		}
	}
}

// keys returns m's keys, sorted.
func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
