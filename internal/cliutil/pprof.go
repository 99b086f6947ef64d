package cliutil

import (
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers StartPprof serves
)

// StartPprof serves net/http/pprof on addr in the background, reporting
// a listen failure on stderr; an empty addr disables it.
func StartPprof(addr string, stderr io.Writer) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(stderr, "pprof: %v\n", err)
		}
	}()
}
