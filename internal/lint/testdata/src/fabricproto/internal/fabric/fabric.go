// Package fabric is the fabricproto fixture's registry: the same
// RegisterKind surface the real fabric exposes, including the memo the
// purity rule sanctions.
package fabric

import "context"

// Executor runs one granule from its serialized spec.
type Executor func(ctx context.Context, spec []byte) ([]byte, error)

var kinds = map[string]Executor{}

// RegisterKind installs a granule executor. The registry map is this
// package's own state: reads of it are exempt from the purity rule.
func RegisterKind(kind string, fn Executor) { kinds[kind] = fn }

// memo is the sanctioned result cache.
var memo = map[string][]byte{}

// CacheGet reads the memo: handlers may call this.
func CacheGet(key string) ([]byte, bool) {
	v, ok := memo[key]
	return v, ok
}

// NewKind is the typed declaration helper: it wraps run in an executor
// and registers it. The wrapping literal captures run by design — the
// analyzer checks run at the NewKind call site instead.
func NewKind[S, R any](kind string, run func(context.Context, S) (R, error)) string {
	RegisterKind(kind, func(ctx context.Context, spec []byte) ([]byte, error) {
		var s S
		_, err := run(ctx, s)
		return spec, err
	})
	return kind
}
