package lint

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-diagnostic harness: each analyzer has a fixture module
// under testdata/src/<name>/ whose sources carry `// want "substring"`
// comments on the lines expected to produce findings. A fixture run
// must match its wants exactly — every diagnostic consumed by a want,
// every want consumed by a diagnostic — so both false positives and
// false negatives fail the test.

// wantRe captures everything after a `// want` marker; the quoted
// substrings inside are the expectations for that line.
var wantRe = regexp.MustCompile(`//\s*want\s+(.+)$`)

// quotedRe matches one Go-quoted string (with escapes).
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file    string // fixture-relative, slash-separated
	line    int
	substr  string
	matched bool
}

// collectWants scans every fixture source for want comments.
func collectWants(t *testing.T, root string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quotedRe.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				return fmt.Errorf("%s:%d: want comment with no quoted expectation", rel, i+1)
			}
			for _, q := range quoted {
				s, err := strconv.Unquote(q)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want string %s: %v", rel, i+1, q, err)
				}
				wants = append(wants, &expectation{file: rel, line: i + 1, substr: s})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// checkWants matches diagnostics against expectations one-to-one.
func checkWants(t *testing.T, root string, diags []Diagnostic) {
	t.Helper()
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, root)
	for _, d := range diags {
		rel, err := filepath.Rel(absRoot, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == rel && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s:%d:%d: [%s] %s", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.substr)
		}
	}
}

// fixtureTest loads testdata/src/<name>, runs only that analyzer and
// compares against the fixture's want comments.
func fixtureTest(t *testing.T, name string) {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	diags, err := run(context.Background(), Config{Dir: root}, []*Analyzer{analyzerByName(name)})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	checkWants(t, root, diags)
}

func TestDeterminismFixture(t *testing.T)   { t.Parallel(); fixtureTest(t, "determinism") }
func TestMapOrderFixture(t *testing.T)      { t.Parallel(); fixtureTest(t, "maporder") }
func TestFloatEqFixture(t *testing.T)       { t.Parallel(); fixtureTest(t, "floateq") }
func TestObsDisciplineFixture(t *testing.T) { t.Parallel(); fixtureTest(t, "obsdiscipline") }

func TestTierDisciplineFixture(t *testing.T) { t.Parallel(); fixtureTest(t, "tierdiscipline") }
func TestErrcheckFixture(t *testing.T)       { t.Parallel(); fixtureTest(t, "errcheck") }

func TestCtxFlowFixture(t *testing.T) { t.Parallel(); fixtureTest(t, "ctxflow") }

// TestPathRestriction narrows the linted packages (the CLI's positional
// patterns) rather than the analyzer scope.
func TestPathRestriction(t *testing.T) {
	t.Parallel()
	root := filepath.Join("testdata", "src", "errcheck")
	diags, err := run(context.Background(), Config{Dir: root, Paths: []string{"cmd"}}, []*Analyzer{analyzerErrcheck})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !strings.Contains(filepath.ToSlash(d.Pos.Filename), "/cmd/") {
			t.Errorf("finding outside cmd/ with Paths=[cmd]: %s", d)
		}
	}
	if len(diags) != 3 {
		t.Errorf("got %d findings in cmd/, want 3: %v", len(diags), diags)
	}
}

// TestSuppressionsFixture runs the full suite (unused-suppression
// tracking needs it) and asserts the exact diagnostic set, since want
// comments cannot ride on directive lines.
func TestSuppressionsFixture(t *testing.T) {
	t.Parallel()
	root := filepath.Join("testdata", "src", "suppress")
	diags, err := Run(context.Background(), Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	type exp struct {
		line     int
		analyzer string
		substr   string
	}
	want := []exp{
		{37, "lint", "a non-empty reason is required"},
		{38, "floateq", "floating-point =="},
		{43, "lint", "not a registered analyzer"},
		{49, "lint", "matches no finding"},
		// Renamed: the stale name reports, the surviving floateq name
		// still suppresses the finding on line 58.
		{57, "lint", "not a registered analyzer"},
		// AllRenamed: every name is stale — the directive reports once,
		// suppresses nothing, and must not double-report as unused.
		{64, "lint", "not a registered analyzer"},
		{65, "floateq", "floating-point =="},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		d := diags[i]
		if d.Pos.Line != w.line || d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.substr) {
			t.Errorf("diag %d = %s, want line %d [%s] ~%q", i, d, w.line, w.analyzer, w.substr)
		}
	}
}

// TestUnusedSuppressionOnlyFullSuite: with a partial suite the stale
// directive must NOT be reported — the analyzer it names did not run.
func TestUnusedSuppressionOnlyFullSuite(t *testing.T) {
	t.Parallel()
	root := filepath.Join("testdata", "src", "suppress")
	diags, err := run(context.Background(), Config{Dir: root}, []*Analyzer{analyzerMapOrder})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "matches no finding") {
			t.Errorf("unused-suppression report under a partial suite: %s", d)
		}
	}
}

func TestParseIgnoreDirective(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in        string
		ok        bool
		wantErr   bool
		analyzers []string
		reason    string
	}{
		{"//lint:ignore floateq the reason", true, false, []string{"floateq"}, "the reason"},
		{"//lint:ignore floateq,maporder two analyzers", true, false, []string{"floateq", "maporder"}, "two analyzers"},
		{"//lint:ignore errcheck   padded   reason", true, false, []string{"errcheck"}, "padded   reason"},
		{"// a plain comment", false, false, nil, ""},
		{"//lint:ignoreall not a directive", false, false, nil, ""},
		{"//lint:ignore", true, true, nil, ""},
		{"//lint:ignore floateq", true, true, nil, ""},
		{"//lint:ignore ,floateq missing name", true, true, nil, ""},
		{"//lint:ignore Float$ bad characters", true, true, nil, ""},
	}
	for _, c := range cases {
		analyzers, reason, ok, err := ParseIgnoreDirective(c.in)
		if ok != c.ok || (err != nil) != c.wantErr {
			t.Errorf("ParseIgnoreDirective(%q) = ok %v err %v, want ok %v err %v", c.in, ok, err, c.ok, c.wantErr)
			continue
		}
		if c.wantErr {
			continue
		}
		if fmt.Sprint(analyzers) != fmt.Sprint(c.analyzers) || reason != c.reason {
			t.Errorf("ParseIgnoreDirective(%q) = %v %q, want %v %q", c.in, analyzers, reason, c.analyzers, c.reason)
		}
	}
}

// TestRepoIsLintClean is the dogfood gate: the repository itself must
// lint clean under the full suite, over the `make lint` package set.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	t.Parallel()
	diags, err := Run(context.Background(), Config{Dir: "../..", Paths: []string{".", "cmd", "internal", "examples"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// FuzzLintIgnoreDirective hardens the directive parser: arbitrary
// comment text must never panic, and a malformed directive must never
// come back as a usable suppression (that would be a silent blanket
// ignore).
func FuzzLintIgnoreDirective(f *testing.F) {
	seeds := []string{
		"//lint:ignore floateq the reason",
		"//lint:ignore floateq,maporder two analyzers",
		"//lint:ignore",
		"//lint:ignore floateq",
		"//lint:ignore ,, reasons",
		"//lint:ignoreall not a directive",
		"// plain comment",
		"//lint:ignore \t weird\tspacing  here",
		"//lint:ignore détérminisme accented name",
		"//lint:ignore errcheck \x00 control bytes",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		analyzers, reason, ok, err := ParseIgnoreDirective(text)
		if !ok {
			if err != nil || analyzers != nil || reason != "" {
				t.Fatalf("not-a-directive result must be empty: %v %q %v", analyzers, reason, err)
			}
			return
		}
		if err != nil {
			if analyzers != nil || reason != "" {
				t.Fatalf("malformed directive must not yield suppressions: %v %q", analyzers, reason)
			}
			return
		}
		if len(analyzers) == 0 {
			t.Fatal("well-formed directive with no analyzers")
		}
		if strings.TrimSpace(reason) == "" {
			t.Fatal("well-formed directive with empty reason")
		}
		for _, name := range analyzers {
			if name == "" {
				t.Fatal("well-formed directive with empty analyzer name")
			}
			for _, r := range name {
				if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
					t.Fatalf("analyzer name %q escaped the allowed alphabet", name)
				}
			}
		}
	})
}
