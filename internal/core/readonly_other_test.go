//go:build !(linux || darwin)

package core

import "testing"

// readOnlyCopy returns a copy of b; this platform's tests map no
// read-only memory.
func readOnlyCopy(tb testing.TB, b []byte) []byte { return append([]byte(nil), b...) }
