package lpm

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
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
