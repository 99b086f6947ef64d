package lint

import (
	"context"
	"go/token"
	"path/filepath"

	"lpm/internal/parallel"
)

// Config parameterises one lint run.
type Config struct {
	// Dir is the module root (a directory containing go.mod). Empty
	// means the current directory.
	Dir string
	// Paths, when non-empty, restricts linted packages to these
	// module-relative prefixes ("." is the root package).
	Paths []string
}

// Run loads the module and applies every analyzer, returning the
// surviving findings sorted by position. Packages are analysed
// concurrently on a GOMAXPROCS-wide internal/parallel pool.
// Suppressions (//lint:ignore) are applied here; malformed and unused
// directives surface as "lint" findings. Cancelling ctx skips the
// packages not yet analysed and fails the run.
func Run(ctx context.Context, cfg Config) ([]Diagnostic, error) {
	return run(ctx, cfg, Analyzers())
}

// run is Run restricted to the given analyzers (the fixture tests run
// one at a time).
func run(ctx context.Context, cfg Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	pkgs, err := Load(dir)
	if err != nil {
		return nil, err
	}
	// Unused-suppression tracking is only sound when every analyzer a
	// directive could name actually ran.
	fullSuite := len(analyzers) == len(Analyzers())

	paths := normalizePaths(cfg.Paths)
	var selected []*Package
	for _, pkg := range pkgs {
		if matchAny(pkg.Rel, paths) {
			selected = append(selected, pkg)
		}
	}

	// Each package's findings stay in their own slice, so the merge
	// below (input order) is deterministic regardless of scheduling.
	perPkg, err := parallel.MapPoolCtx(ctx, parallel.NewPool(0), selected, func(_ context.Context, pkg *Package) ([]Diagnostic, error) {
		var diags []Diagnostic
		for _, a := range analyzers {
			if matchAny(pkg.Rel, a.Paths) {
				a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
			}
		}
		return diags, nil
	})
	if err != nil {
		return nil, err
	}

	// Apply per-file suppressions; malformed directives report here.
	// Packages iterate in load order and Syntax in sorted-filename
	// order, so the walk over every directive is deterministic.
	var out []Diagnostic
	sups := make(map[string]*fileSuppressions)
	var orderedSups []*fileSuppressions
	for _, pkg := range selected {
		for _, f := range pkg.Syntax {
			name := pkg.Fset.Position(f.Pos()).Filename
			fs := buildSuppressions(pkg.Fset, f, pkg.srcLines[name], func(pos token.Pos, msg string) {
				out = append(out, Diagnostic{Pos: pkg.Fset.Position(pos), Analyzer: "lint", Message: msg})
			})
			sups[name] = fs
			orderedSups = append(orderedSups, fs)
		}
	}
	for _, ds := range perPkg {
		for _, d := range ds {
			if fs, ok := sups[d.Pos.Filename]; ok && fs.suppress(d) {
				continue
			}
			out = append(out, d)
		}
	}
	if fullSuite {
		for _, fs := range orderedSups {
			for _, s := range fs.all {
				if !s.used {
					out = append(out, Diagnostic{
						Pos:      fs.fset.Position(s.pos),
						Analyzer: "lint",
						Message:  "suppression matches no finding on its target line; delete the stale //lint:ignore",
					})
				}
			}
		}
	}
	sortDiagnostics(out)
	return out, nil
}

// normalizePaths cleans CLI path patterns ("./internal/sim/" →
// "internal/sim").
func normalizePaths(paths []string) []string {
	var out []string
	for _, p := range paths {
		p = filepath.ToSlash(filepath.Clean(p))
		if p == "" {
			continue
		}
		out = append(out, p)
	}
	return out
}
