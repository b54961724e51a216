package clrt

import (
	"math/bits"
	"runtime"
	"unsafe"
)

// Goroutine identity. Every traced operation resolves its execution
// context by goroutine id, so the id lookup sits on the hot path of
// every Lock, Unlock, Send and Recv, and whatever it costs between an
// obtain and a release is recorded as hold time.
//
// The reference implementation parses the id out of the stack header
// (stackGoid). It is portable and always right, but runtime.Stack
// costs several microseconds per call. Where an assembly getg stub
// exists (getg_amd64.s, getg_arm64.s) the id is instead read straight
// from the runtime's g struct at an offset discovered at init by
// probeGoidOffset; the fast path is used only when that probe finds
// exactly one offset that agrees with stackGoid on every goroutine it
// tries. Anything else — another GOARCH, a runtime whose g layout the
// probe cannot pin down — falls back to the stack parse.

// goidScanWords bounds the probe's scan of runtime.g, in 8-byte words.
// goid sits at byte 152 of g in Go 1.24 and g is over 400 bytes, so 48
// words leave room for fields added ahead of goid without reading past
// the object.
const goidScanWords = 48

// goidProbes is how many fresh goroutines the probe intersects. Init
// runs on the main goroutine, whose id is 1, and any g field that
// happens to hold 1 would pass for goid there; fresh goroutines with
// larger, distinct ids rule such coincidences out.
const goidProbes = 8

// goidOffset is the byte offset of goid in runtime.g, or -1 when the
// stack parse is in use. It is written only at init (and by tests).
var goidOffset = probeGoidOffset()

// goid returns the calling goroutine's id.
func goid() int64 {
	if goidOffset >= 0 {
		return *(*int64)(unsafe.Add(getg(), goidOffset))
	}
	return stackGoid()
}

// goidPath names the identity path in use, for the recording's
// "clrt.goid" metadata.
func goidPath() string {
	if goidOffset >= 0 {
		return "fast"
	}
	return "stack"
}

// stackGoid parses the calling goroutine's id out of its stack header
// ("goroutine N [running]:"). There is no supported API for this; it
// is the reference the fast path is checked against.
func stackGoid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = "goroutine "
	s := buf[len(prefix):n]
	var id int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// goidCandidates returns a bit mask of the word offsets in the calling
// goroutine's g that hold its stack-parsed id.
func goidCandidates() uint64 {
	g := getg()
	id := stackGoid()
	var mask uint64
	for w := 0; w < goidScanWords; w++ {
		if *(*int64)(unsafe.Add(g, w*8)) == id {
			mask |= 1 << w
		}
	}
	return mask
}

// probeGoidOffset finds goid's offset in runtime.g from the candidate
// offsets of the calling goroutine and of goidProbes fresh ones, each
// with a distinct id. It returns -1 when this GOARCH has no getg stub
// or the candidates do not single out one offset.
func probeGoidOffset() int {
	if getg() == nil {
		return -1
	}
	masks := []uint64{goidCandidates()}
	done := make(chan uint64)
	for i := 0; i < goidProbes; i++ {
		go func() { done <- goidCandidates() }()
		masks = append(masks, <-done)
	}
	return commonOffset(masks)
}

// commonOffset returns the byte offset of the one word offset present
// in every candidate mask, or -1 when none or several are.
func commonOffset(masks []uint64) int {
	common := ^uint64(0)
	for _, m := range masks {
		common &= m
	}
	if bits.OnesCount64(common) != 1 {
		return -1
	}
	return bits.TrailingZeros64(common) * 8
}
