// Command lpmlint runs the repository's custom static-analysis suite
// (internal/lint): stdlib-only analyzers enforcing the simulator's
// determinism, accounting and observability invariants. It is the
// `make lint` gate.
//
// Usage:
//
//	lpmlint ./...                        # whole module
//	lpmlint internal/sim/...             # one subtree
//	lpmlint -C dir ./...                 # the module rooted at dir
//	lpmlint -list                        # describe the analyzers
//	lpmlint -format=github ./...         # GitHub Actions annotations
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type errors.
// Suppress a single finding with `//lint:ignore analyzer reason` on or
// directly above the offending line; the reason is mandatory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lpm/internal/cliutil"
	"lpm/internal/lint"
	"lpm/internal/resilience"
)

// errFindings marks the "lint ran fine and found problems" exit path.
var errFindings = errors.New("lint: findings")

func main() {
	ctx, stop := resilience.WithSignals(context.Background())
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errFindings):
		os.Exit(1)
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lpmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir    = fs.String("C", ".", "module root directory (containing go.mod)")
		list   = fs.Bool("list", false, "describe the registered analyzers and exit")
		format = fs.String("format", "text", "output format: text or github (Actions annotations)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "text", "github":
	default:
		return fmt.Errorf("lpmlint: -format must be text or github, got %q", *format)
	}

	p := cliutil.NewPrinter(stdout)
	if *list {
		for _, a := range lint.Analyzers() {
			scope := "all packages"
			if len(a.Paths) > 0 {
				scope = strings.Join(a.Paths, ", ")
			}
			p.Printf("%-14s %s\n%14s   scope: %s\n", a.Name, a.Doc, "", scope)
		}
		return p.Err()
	}

	paths, err := argPaths(fs.Args())
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	diags, err := lint.Run(ctx, lint.Config{Dir: *dir, Paths: paths})
	if err != nil {
		return err
	}
	if err := printDiags(p, *format, diags); err != nil {
		return err
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lpmlint: %d finding(s)\n", len(diags))
		return errFindings
	}
	return nil
}

// printDiags renders findings in the selected format: the canonical
// text lines, or GitHub Actions ::error annotations (which the Actions
// runner turns into PR file comments).
func printDiags(p *cliutil.Printer, format string, diags []lint.Diagnostic) error {
	for _, d := range diags {
		if format == "github" {
			p.Printf("::error file=%s,line=%d,col=%d,title=lpmlint(%s)::%s\n",
				relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, ghEscape(d.Message))
		} else {
			p.Println(d)
		}
	}
	return p.Err()
}

// relPath renders a diagnostic path relative to the working directory
// (the repo root under make/CI), which is what Actions annotations
// need to attach to files.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

// ghEscape escapes an annotation message per the Actions workflow-command
// rules (%, CR and LF are the command metacharacters).
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// argPaths maps package patterns to module-relative prefixes: "./..."
// (or no argument) lints everything; "internal/sim/..." a subtree; a
// plain directory exactly that package's subtree.
func argPaths(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		switch {
		case a == "./..." || a == "...":
			return nil, nil // everything
		case strings.HasSuffix(a, "/..."):
			out = append(out, strings.TrimSuffix(a, "/..."))
		case strings.HasPrefix(a, "-"):
			return nil, fmt.Errorf("lpmlint: flag %q must precede package patterns", a)
		default:
			out = append(out, a)
		}
	}
	return out, nil
}
