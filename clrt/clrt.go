// Package clrt is the runtime support library for instrumented Go
// programs: drop-in replacements for sync.Mutex, sync.RWMutex,
// sync.WaitGroup, channels and the go statement that record every
// synchronization event to a critlock trace while preserving the
// original program's semantics.
//
// Application code does not import this package by hand — cmd/clainstr
// rewrites a copy of a target module so that its sync primitives land
// here (see internal/instr and docs/GUIDE.md). The rewritten types are
// method-compatible with their sync counterparts, so call sites
// (mu.Lock(), defer mu.Unlock(), wg.Wait(), promoted methods of
// embedded mutexes, locks passed by pointer) compile unchanged; only
// type names, go statements, channel operations and main itself are
// rewritten.
//
// The instrumented process runs on an internal/livetrace Runtime: real
// goroutines, sync.Mutex-backed primitives, monotonic timestamps, and
// try-lock contention detection — the paper's interposition-library
// strategy. The current thread's execution context is resolved through
// a goroutine-id registry (the GoChan tracer technique): clrt.Go
// registers the child goroutine before its body runs, and every
// primitive looks the calling goroutine up on entry (goid.go covers
// how the id is read cheaply). Each recording states how it was made
// in its metadata: "clrt.goid" names the id path ("fast" or "stack")
// and "clrt.adopted" counts the adopted foreign goroutines.
//
// Output is controlled by environment variables, read when the
// instrumented main returns (or clrt.Exit runs):
//
//	CRITLOCK_SEGDIR  write a segmented trace directory (bounded-memory
//	                 streaming format; analyze with cla -segdir)
//	CRITLOCK_OUT     write a binary trace file (default critlock.cltr
//	                 when CRITLOCK_SEGDIR is unset)
//	CRITLOCK_SEED    seed for per-thread PRNGs (default 0)
//	CRITLOCK_QUIET   suppress the one-line summary printed to stderr
package clrt

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"critlock/internal/harness"
	"critlock/internal/livetrace"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

// st is the per-process recording state. An instrumented process holds
// exactly one recording; tests reset it between cases.
var st struct {
	mu        sync.Mutex
	rt        *livetrace.Runtime
	root      harness.Proc
	rootID    int64
	rootTaken bool
	finished  bool
	adopted   int // foreign goroutines adopted so far
}

// procs maps goroutine id -> harness.Proc for every goroutine spawned
// through Go (plus the root and any adopted foreigners). Goroutine ids
// are never reused by the Go runtime, so a stale entry can only leak,
// never alias; Go deletes entries when bodies return.
var procs sync.Map

var foreignWarn sync.Once

// ensureRuntimeLocked creates the process-wide live runtime on first
// touch. Callers hold st.mu.
func ensureRuntimeLocked() *livetrace.Runtime {
	if st.rt == nil {
		seed, _ := strconv.ParseInt(os.Getenv("CRITLOCK_SEED"), 10, 64)
		st.rt = livetrace.New(livetrace.Config{Seed: seed})
		st.rt.SetMeta("instrumenter", "clainstr")
		st.rt.SetMeta("clrt.goid", goidPath())
		st.rt.SetMeta("clrt.adopted", "0")
		if len(os.Args) > 0 {
			st.rt.SetMeta("program", os.Args[0])
		}
	}
	return st.rt
}

// ensureRuntime is ensureRuntimeLocked for callers not holding st.mu.
func ensureRuntime() *livetrace.Runtime {
	st.mu.Lock()
	defer st.mu.Unlock()
	return ensureRuntimeLocked()
}

// cur resolves the calling goroutine's execution context. The first
// goroutine to touch an instrumented primitive becomes the root thread
// (lock use in package init runs before Main); any later goroutine not
// spawned through Go — created by un-instrumented library code — is
// adopted with an approximate creation edge rather than crashing.
func cur() harness.Proc {
	id := goid()
	if p, ok := procs.Load(id); ok {
		return p.(harness.Proc)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if p, ok := procs.Load(id); ok {
		return p.(harness.Proc)
	}
	rt := ensureRuntimeLocked()
	if !st.rootTaken {
		st.rootTaken = true
		p, err := rt.Begin("main")
		if err != nil {
			panic("clrt: " + err.Error())
		}
		st.root, st.rootID = p, id
		procs.Store(id, p)
		return p
	}
	foreignWarn.Do(func() {
		fmt.Fprintln(os.Stderr, "critlock/clrt: goroutine created outside instrumented code touched a traced primitive; adopting it (creation edge approximate)")
	})
	p := rt.Adopt(fmt.Sprintf("adopted-%d", id))
	procs.Store(id, p)
	st.adopted++
	rt.SetMeta("clrt.adopted", strconv.Itoa(st.adopted))
	return p
}

// valproc is cur narrowed to the live backend's payload extension.
func valproc() livetrace.ValProc {
	return cur().(livetrace.ValProc)
}

// autoName names a lazily-registered object after the first
// instrumented call site that touched it — the nearest frame outside
// clrt and the runtime — e.g. "mutex@server.go:142". The instrumenter
// injects explicit names where a declaration site is nameable; this is
// the fallback for struct fields and other per-instance objects.
func autoName(kind string) string {
	var pcs [16]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if f.Function != "" &&
			!strings.Contains(f.File, "/clrt/") &&
			!strings.HasPrefix(f.Function, "sync.") &&
			!strings.HasPrefix(f.Function, "runtime.") {
			file := f.File
			if i := strings.LastIndexByte(file, '/'); i >= 0 {
				file = file[i+1:]
			}
			return fmt.Sprintf("%s@%s:%d", kind, file, f.Line)
		}
		if !more {
			return kind
		}
	}
}

// Go is the rewritten form of the go statement: it spawns fn as a
// traced thread (create/start/exit events, join edges) and registers
// the child goroutine so primitives inside fn resolve their context.
// The instrumenter binds the original call's function and arguments
// before calling Go, preserving the go statement's evaluation order.
func Go(name string, fn func()) {
	p := cur()
	p.Go(name, func(q harness.Proc) {
		id := goid()
		procs.Store(id, q)
		defer procs.Delete(id)
		fn()
	})
}

// Main is the rewritten program entry point: the instrumenter wraps
// the target's func main body in a closure and hands it here. Main
// starts the recording (unless package init already did, via a traced
// primitive), runs the body, waits for traced threads, and writes the
// trace. A panic in the body still flushes the trace before being
// re-raised; panics recovered in traced child threads are reported on
// stderr after the run.
func Main(body func()) {
	p := cur()
	st.mu.Lock()
	if st.rootID != goid() {
		st.mu.Unlock()
		panic("clrt: Main must run on the goroutine that started the recording")
	}
	st.mu.Unlock()
	_ = p

	var panicked any
	didPanic := false
	func() {
		defer func() {
			if r := recover(); r != nil || didPanic {
				panicked = r
			}
		}()
		didPanic = true
		body()
		didPanic = false
	}()

	flushEnd()
	if didPanic {
		panic(panicked)
	}
}

// flushEnd closes the recording via End (waiting for spawned threads)
// and writes the configured outputs.
func flushEnd() {
	st.mu.Lock()
	if st.finished || st.rt == nil {
		st.mu.Unlock()
		return
	}
	st.finished = true
	rt, root := st.rt, st.root
	st.mu.Unlock()

	tr, elapsed, err := rt.End(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "critlock/clrt:", err)
	}
	writeOutputs(tr, elapsed)
}

// Exit is the rewritten form of os.Exit: it snapshots and writes the
// trace without waiting for running threads (os.Exit must not block),
// then exits with code. Threads cut down mid-critical-section can
// leave validation warnings in the trace; analyze such traces with
// validation off.
func Exit(code int) {
	st.mu.Lock()
	if st.finished || st.rt == nil {
		st.mu.Unlock()
		os.Exit(code)
	}
	st.finished = true
	rt := st.rt
	st.mu.Unlock()

	tr, elapsed := rt.EndNow()
	writeOutputs(tr, elapsed)
	os.Exit(code)
}

// writeOutputs writes the trace per CRITLOCK_SEGDIR / CRITLOCK_OUT and
// prints the one-line summary unless CRITLOCK_QUIET is set.
func writeOutputs(tr *trace.Trace, elapsed trace.Time) {
	segdir := os.Getenv("CRITLOCK_SEGDIR")
	out := os.Getenv("CRITLOCK_OUT")
	var wrote []string
	if segdir != "" {
		if err := segment.WriteTrace(segdir, tr, segment.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "critlock/clrt: writing segments:", err)
		} else {
			wrote = append(wrote, segdir)
		}
	}
	if out == "" && segdir == "" {
		out = "critlock.cltr"
	}
	if out != "" {
		if err := writeTraceFile(out, tr); err != nil {
			fmt.Fprintln(os.Stderr, "critlock/clrt: writing trace:", err)
		} else {
			wrote = append(wrote, out)
		}
	}
	if os.Getenv("CRITLOCK_QUIET") == "" {
		fmt.Fprintf(os.Stderr, "critlock: recorded %d events over %.1f ms -> %s\n",
			len(tr.Events), float64(elapsed)/1e6, strings.Join(wrote, ", "))
	}
}

func writeTraceFile(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resetForTest clears the per-process recording state so tests can run
// several captures in one process. Instrumented programs never call it.
func resetForTest() {
	st.mu.Lock()
	st.rt, st.root, st.rootID, st.rootTaken, st.finished, st.adopted = nil, nil, 0, false, false, 0
	st.mu.Unlock()
	procs.Range(func(k, _ any) bool { procs.Delete(k); return true })
}
