//go:build !amd64 && !arm64

package clrt

import "unsafe"

// getg has no assembly stub on this GOARCH; nil selects the
// runtime.Stack fallback.
func getg() unsafe.Pointer { return nil }
