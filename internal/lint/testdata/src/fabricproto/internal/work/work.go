// Package work registers the fixture's granule handlers: one pure, and
// one for every impurity class the analyzer reports.
package work

import (
	"context"
	"os"
	"time"

	"lpm/internal/fabric"
)

// table is mutable package state outside the sanctioned packages.
var table = map[string]int{"a": 1}

func init() {
	fabric.RegisterKind("pure", func(ctx context.Context, spec []byte) ([]byte, error) {
		return run(ctx, spec) // pure: spec in, result out
	})
	fabric.RegisterKind("cached", func(ctx context.Context, spec []byte) ([]byte, error) {
		// The fabric-owned memo is sanctioned.
		if v, ok := fabric.CacheGet(string(spec)); ok {
			return v, nil
		}
		return spec, nil
	})
	fabric.RegisterKind("clocky", func(ctx context.Context, spec []byte) ([]byte, error) {
		_ = time.Now() // want "time.Now reads the wall clock in fabric handler for kind \"clocky\""
		return spec, nil
	})
	n := 3
	fabric.RegisterKind("closure", func(ctx context.Context, spec []byte) ([]byte, error) {
		if n > 0 { // want "captures variable \"n\" from its enclosing scope"
			return spec, nil
		}
		return nil, nil
	})
	fabric.RegisterKind("global", handleGlobal)
	fabric.RegisterKind("deep", func(ctx context.Context, spec []byte) ([]byte, error) {
		return deep(spec) // the impurity is two frames down; the finding carries the chain
	})
	var fn fabric.Executor = run
	fn = wrap(fn)
	fabric.RegisterKind("dynamic", fn) // want "not statically resolvable"
}

// handleGlobal reads mutable package state: named handlers are checked
// the same as literals.
func handleGlobal(ctx context.Context, spec []byte) ([]byte, error) {
	if table["a"] > 0 { // want "uses package-level variable table in fabric handler for kind \"global\""
		return spec, nil
	}
	return nil, nil
}

// run is the pure workhorse.
func run(ctx context.Context, spec []byte) ([]byte, error) {
	out := make([]byte, len(spec))
	copy(out, spec)
	return out, nil
}

// wrap makes fn unresolvable statically.
func wrap(fn fabric.Executor) fabric.Executor { return fn }

// deep and sub put the impurity at chain depth two.
func deep(spec []byte) ([]byte, error) { return sub(spec) }

func sub(spec []byte) ([]byte, error) {
	f, err := os.Open("calibration.json") // want "calls os.Open in fabric handler for kind \"deep\""
	if err != nil {
		return nil, err
	}
	_ = f.Close() // want "calls os.Close in fabric handler for kind \"deep\""
	return spec, nil
}

// typedKind is declared through the generic helper in a package-level
// initialiser, the way the real kinds are: the run function is the
// handler, checked like a RegisterKind argument.
var typedKind = fabric.NewKind("typed", typedClocky)

func typedClocky(ctx context.Context, n int) (int, error) {
	return n + time.Now().Nanosecond(), nil // want "time.Now reads the wall clock in fabric handler for kind \"typed\""
}
