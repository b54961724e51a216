package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"critlock"
	"critlock/internal/instr"
)

var clrtTraced = workload{
	name: "clrt-traced",
	why: "a sync-dense Go program run instrumented by clainstr and as built: clrt, livetrace, " +
		"the collector and the segment writer, and no analysis code",
	setup:   clrtSetup,
	prepare: clrtPrepare,
}

// clrtHotLock is the target's planted hot lock as the instrumenter
// names it.
const clrtHotLock = "main.hotMu"

// clrtRef is the clrt-traced set-up: the two binaries, their
// arguments and the reference checksum from a verified native run.
type clrtRef struct {
	Traced   string   `json:"traced"`
	Native   string   `json:"native"`
	Args     []string `json:"args"`
	Checksum string   `json:"checksum"`
}

func clrtArgs(e *env) []string {
	items := "10000"
	if e.tiny {
		items = "400"
	}
	return []string{"-seed", fmt.Sprint(e.seed), "-items", items}
}

// clrtSetup instruments the target with clainstr, builds the
// instrumented copy and the unmodified program, and records the
// checksum of a native run that also recomputes it sequentially.
func clrtSetup(e *env) (*setupResult, error) {
	src := filepath.Join(e.root, "perfbench", "target")
	out := filepath.Join(e.dir, "instr")
	bin := filepath.Join(e.dir, "bin")
	for _, d := range []string{out, bin} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	res, err := instr.Run(instr.Options{Dir: src, Out: out, CritlockDir: e.root})
	if err != nil {
		return nil, fmt.Errorf("instrumenting the target: %w", err)
	}
	rewrite := seconds(time.Since(t))
	if !res.ChannelsOn || len(res.Findings) > 0 {
		return nil, fmt.Errorf("target not fully instrumented: channels on %v, %d findings", res.ChannelsOn, len(res.Findings))
	}
	ref := &clrtRef{Traced: filepath.Join(bin, "traced"), Native: filepath.Join(bin, "native"), Args: clrtArgs(e)}
	t = time.Now()
	if err := goBuild(out, ref.Traced); err != nil {
		return nil, err
	}
	build := seconds(time.Since(t))
	if err := goBuild(src, ref.Native); err != nil {
		return nil, err
	}
	cr, err := runChild(e.dir, childEnv(filepath.Join(e.dir, "tmp")), os.Stderr, ref.Native, append(ref.Args, "-verify")...)
	if err != nil {
		return nil, fmt.Errorf("verified native run: %w", err)
	}
	kv := parseKV(cr.Stdout)
	if kv["check"] != "ok" {
		return nil, fmt.Errorf("verified native run: check=%s", kv["check"])
	}
	ref.Checksum = kv["checksum"]

	// The input is the instrumented program plus its arguments.
	h := sha256.New()
	fmt.Fprintf(h, "args %q\n", ref.Args)
	for _, f := range []string{filepath.Join(out, "main.go"), filepath.Join(out, "go.mod")} {
		if _, err := hashFile(h, f); err != nil {
			return nil, err
		}
	}
	in := inputInfo{Name: "clrt-traced program", Digest: hex.EncodeToString(h.Sum(nil))}
	return &setupResult{
		Inputs: []inputInfo{in},
		Clrt:   ref,
		Layers: map[string]float64{"instr.rewrite_s": rewrite, "instr.build_s": build},
	}, nil
}

// goBuild builds the main package in dir into exe with at most nproc
// parallel compile jobs.
func goBuild(dir, exe string) error {
	cmd := exec.Command("go", "build", "-p", fmt.Sprint(runtime.NumCPU()), "-o", exe, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %w\n%s", dir, err, out)
	}
	return nil
}

// parseKV reads the target's key=value output line.
func parseKV(s string) map[string]string {
	kv := map[string]string{}
	for _, f := range strings.Fields(s) {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

// clrtPrepare returns the clrt-traced job: one run of the native
// binary and one of the traced binary recording to a segment
// directory, in alternating order. Each run must exit 0 with its own
// check passing and the reference checksum, and the recording must
// analyze with the planted hot lock first.
func clrtPrepare(r *runner) (func(span bool) (jobSample, error), error) {
	ref := r.ref.Clrt
	segdir := filepath.Join(r.env.dir, "rec")
	tmp := filepath.Join(r.env.dir, "tmp")
	tracedEnv := childEnv(tmp, "CRITLOCK_SEGDIR="+segdir, "CRITLOCK_SEED="+fmt.Sprint(r.env.seed), "CRITLOCK_QUIET=1")
	jobs := 0
	return func(span bool) (jobSample, error) {
		args := ref.Args
		if span {
			args = append(append([]string(nil), args...), "-span")
		}
		var s jobSample
		if err := os.RemoveAll(segdir); err != nil {
			return s, err
		}
		var (
			native, traced childRun
			nerr, terr     error
			exited         time.Time
		)
		runNative := func() { native, nerr = runChild(r.env.dir, childEnv(tmp), os.Stderr, ref.Native, args...) }
		runTraced := func() {
			traced, terr = runChild(r.env.dir, tracedEnv, os.Stderr, ref.Traced, args...)
			exited = time.Now()
		}
		// Alternate which binary goes first, so neither always runs on
		// the other's heels.
		if jobs%2 == 0 {
			runNative()
			runTraced()
		} else {
			runTraced()
			runNative()
		}
		jobs++

		nkv, tkv := parseKV(native.Stdout), parseKV(traced.Stdout)
		if nerr == nil {
			nerr = checkTargetRun("native", nkv, ref.Checksum)
		}
		r.op(nerr)
		if terr == nil {
			terr = checkTargetRun("traced", tkv, ref.Checksum)
		}
		var rec inputInfo
		if terr == nil {
			rec, terr = checkRecording(segdir)
		}
		r.op(terr)

		s.Wall = seconds(traced.Wall)
		s.Latency = []float64{s.Wall}
		s.Events, s.Bytes, s.PeakRSS = rec.Events, rec.Bytes, traced.PeakRSS
		if !span {
			s.Native = seconds(native.Wall)
			r.res.Inputs = []inputInfo{rec}
			return s, nil
		}
		s.layers = clrtLayers(nkv, tkv, rec, s.Wall, exited)
		return s, nil
	}, nil
}

// checkTargetRun checks one run's own check and its checksum.
func checkTargetRun(which string, kv map[string]string, want string) error {
	if kv["check"] != "ok" {
		return fmt.Errorf("%s run: check=%q", which, kv["check"])
	}
	if kv["checksum"] != want {
		return fmt.Errorf("%s run: checksum %s, reference %s", which, kv["checksum"], want)
	}
	return nil
}

// checkRecording analyzes a traced run's segment directory and checks
// that the planted hot lock ranks first.
func checkRecording(segdir string) (inputInfo, error) {
	rec, err := dirInput("clrt-traced recording", segdir)
	if err != nil {
		return rec, err
	}
	an, err := critlock.Analyze(critlock.SegmentDirSource(segdir))
	if err != nil {
		return rec, fmt.Errorf("analyzing the recording: %w", err)
	}
	// The span pass's batch timers are the benchmark's own locks, run
	// on the main goroutine; the check ranks the program's locks.
	top := "none"
	for _, l := range an.Locks {
		if !strings.HasPrefix(l.Name, "main.batches.") {
			top = l.Name
			break
		}
	}
	if top != clrtHotLock {
		return rec, fmt.Errorf("recording's top lock %s, want %s", top, clrtHotLock)
	}
	return rec, nil
}

// clrtLayers derives the span run's clrt layers from the two runs'
// output: the batch timers, the flush (body end to process exit: End
// plus the segment write) and the recording's size.
func clrtLayers(nkv, tkv map[string]string, rec inputInfo, wall float64, exited time.Time) map[string]float64 {
	num := func(kv map[string]string, k string) float64 {
		v, _ := strconv.ParseFloat(kv[k], 64)
		return v
	}
	l := map[string]float64{}
	for _, k := range []string{"lock_unlock_ns", "rlock_runlock_ns", "chan_sendrecv_ns", "go_spawn_ns", "wg_ns"} {
		l["clrt."+k] = num(tkv, k)
	}
	l["native.lock_unlock_ns"] = num(nkv, "lock_unlock_ns")
	bodyStart, bodyEnd := num(tkv, "body_start_ns"), num(tkv, "body_end_ns")
	l["clrt.flush_s"] = (float64(exited.UnixNano()) - bodyEnd) / 1e9
	l["clrt.events"] = float64(rec.Events)
	if ops := num(tkv, "ops"); ops > 0 {
		l["clrt.events_per_op"] = float64(rec.Events) / ops
	}
	l["segment.write_bytes"] = float64(rec.Bytes)
	if rec.Events > 0 {
		l["segment.bytes_per_event"] = float64(rec.Bytes) / float64(rec.Events)
	}
	// What the body and the flush leave of the traced run: exec,
	// runtime start-up and flag parsing before the body starts.
	l["bench.unaccounted_s"] = wall - (bodyEnd-bodyStart)/1e9 - l["clrt.flush_s"]
	return l
}
