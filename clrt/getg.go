//go:build amd64 || arm64

package clrt

import "unsafe"

// getg returns the calling goroutine's runtime.g (getg_$GOARCH.s).
func getg() unsafe.Pointer
