package clrt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"critlock/internal/trace"
)

// forceStackGoid switches goid to the runtime.Stack fallback for the
// rest of the test, as on a GOARCH without a getg stub or a runtime
// whose g layout the init probe could not pin down.
func forceStackGoid(t *testing.T) {
	t.Helper()
	saved := goidOffset
	goidOffset = -1
	t.Cleanup(func() { goidOffset = saved })
}

func TestGoidFastPathSelected(t *testing.T) {
	switch runtime.GOARCH {
	case "amd64", "arm64":
		if goidOffset < 0 {
			t.Fatalf("init probe rejected the fast path on %s; goid falls back to runtime.Stack", runtime.GOARCH)
		}
	default:
		if goidOffset >= 0 {
			t.Fatalf("fast path selected on %s, which has no getg stub", runtime.GOARCH)
		}
	}
	if got := probeGoidOffset(); got != goidOffset {
		t.Errorf("re-probe found offset %d, init found %d", got, goidOffset)
	}
}

// TestCommonOffset pins the probe's rule: only an offset every
// goroutine agrees on, and only a unique one, selects the fast path.
func TestCommonOffset(t *testing.T) {
	for _, tc := range []struct {
		masks []uint64
		want  int
	}{
		{[]uint64{0b1011_0110, 0b0000_0100, 0b0100_0100}, 16}, // id 1 matches many words
		{[]uint64{0b0110, 0b0110}, -1},                        // two words always agree
		{[]uint64{0b0001, 0b0010}, -1},                        // no common word
		{[]uint64{1 << 19}, 152},
	} {
		if got := commonOffset(tc.masks); got != tc.want {
			t.Errorf("commonOffset(%b) = %d, want %d", tc.masks, got, tc.want)
		}
	}
}

// TestGoidMatchesStackParse checks the fast path against the reference
// on the test goroutine and on 128 fresh goroutines, half of them
// spawned after 10k others have come and gone, so their ids are far
// from anything the init probe saw.
func TestGoidMatchesStackParse(t *testing.T) {
	if got, want := goid(), stackGoid(); got != want {
		t.Fatalf("test goroutine: goid %d, stack parse %d", got, want)
	}
	check := func(n int) {
		var wg sync.WaitGroup
		errs := make(chan string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, want := goid(), stackGoid(); got != want {
					errs <- fmt.Sprintf("goid %d, stack parse %d", got, want)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
	check(64)
	var churn sync.WaitGroup
	for i := 0; i < 10000; i++ {
		churn.Add(1)
		go churn.Done()
	}
	churn.Wait()
	check(64)
}

// hotColdWorkload runs four workers that each take a long-held hot
// lock and a short-held cold lock, so the hot lock tops any analysis.
func hotColdWorkload() {
	var hot, cold Mutex
	hot.SetName("id.hot")
	cold.SetName("id.cold")
	var wg WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		Go(fmt.Sprintf("worker-%d", w), func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				hot.Lock()
				spin(20 * time.Microsecond)
				hot.Unlock()
				cold.Lock()
				cold.Unlock()
			}
		})
	}
	wg.Wait()
}

// lockSummary is the identity-independent outcome of an analysis: the
// sorted lock names and the lock with the most critical-path time.
func lockSummary(t *testing.T, tr *trace.Trace) (names []string, top string) {
	t.Helper()
	an := analyze(t, tr)
	best := -1.0
	for _, ls := range an.Locks {
		names = append(names, ls.Name)
		if ls.CPTimePct > best {
			best, top = ls.CPTimePct, ls.Name
		}
	}
	sort.Strings(names)
	return names, top
}

func TestStackGoidFallbackAnalyzesIdentically(t *testing.T) {
	fast := capture(t, hotColdWorkload)
	var slow *trace.Trace
	t.Run("stack", func(t *testing.T) {
		forceStackGoid(t)
		slow = capture(t, hotColdWorkload)
	})
	if slow == nil {
		t.FailNow()
	}
	wantPath := map[*trace.Trace]string{fast: goidPath(), slow: "stack"}
	for tr, want := range wantPath {
		if got := tr.Meta["clrt.goid"]; got != want {
			t.Errorf("clrt.goid meta = %q, want %q", got, want)
		}
		if got := tr.Meta["clrt.adopted"]; got != "0" {
			t.Errorf("clrt.adopted meta = %q, want 0", got)
		}
	}
	fastNames, fastTop := lockSummary(t, fast)
	slowNames, slowTop := lockSummary(t, slow)
	if fmt.Sprint(fastNames) != fmt.Sprint(slowNames) {
		t.Errorf("locks differ: fast path %v, stack parse %v", fastNames, slowNames)
	}
	if fastTop != "id.hot" || slowTop != "id.hot" {
		t.Errorf("top lock: fast path %q, stack parse %q, want id.hot for both", fastTop, slowTop)
	}
	if len(fast.Threads) != len(slow.Threads) {
		t.Errorf("threads: fast path %d, stack parse %d", len(fast.Threads), len(slow.Threads))
	}
}
