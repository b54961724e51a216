package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// setup generates the inputs and their reference results into
	// e.dir.
	setup func(e *env) (*setupResult, error)
	// prepare readies the closed loop and returns its job: one job
	// per call, instrumented by spans when span is true.
	prepare func(r *runner) (func(span bool) (jobSample, error), error)
}

var benchWorkloads = []workload{streamMix, modelsInmem, clrtTraced}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return names
}

// jobSample is one finished job.
type jobSample struct {
	jobRecord
	layers map[string]float64 // span jobs only
}

// runner drives the closed loop of one jobs child.
type runner struct {
	env *env
	ref *setupResult
	res *jobsResult
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (r *runner) op(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		if len(r.res.Failures) < 10 {
			r.res.Failures = append(r.res.Failures, err.Error())
		}
	}
}

// loop runs job back to back for the given time after one untimed
// warm-up job: a closed loop with one client. A calibration runs
// between jobs. In span mode untraced and span jobs alternate, so the
// span overhead compares jobs run under the same conditions.
//
// Before each job the heap is collected and returned to the OS and the
// process's peak RSS is reset, so each job's peak is its own — as if
// it ran in a fresh process, the way cla does.
func (r *runner) loop(job func(span bool) (jobSample, error), budget time.Duration, span bool) error {
	if _, err := job(false); err != nil {
		return err
	}
	minJobs := 3
	if span {
		minJobs = 4
	}
	start := time.Now()
	cal := calibrate()
	for i := 0; i < minJobs || time.Since(start) < budget; i++ {
		traced := span && i%2 == 1
		debug.FreeOSMemory()
		reset := resetPeakRSS()
		s, err := job(traced)
		if err != nil {
			return err
		}
		if s.PeakRSS == 0 && reset {
			s.PeakRSS = peakRSS()
		}
		next := calibrate()
		s.Calib, cal = (cal+next)/2, next
		if traced {
			r.res.SpanJobs = append(r.res.SpanJobs, s.Wall)
			if r.res.Layers == nil {
				r.res.Layers = map[string][]float64{}
			}
			for k, v := range s.layers {
				r.res.Layers[k] = append(r.res.Layers[k], v)
			}
			continue
		}
		r.res.Jobs = append(r.res.Jobs, s.jobRecord)
	}
	return nil
}

// resetPeakRSS resets the process's peak RSS to its current RSS
// (Linux: clear_refs 5) and reports whether it could. Where it cannot,
// the parent falls back to the process-wide peak.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS reads the process's peak RSS since the last reset, in bytes
// (0 if unknown).
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}

// childMain runs one child step: "setup" or "jobs".
func childMain(args []string, errOut io.Writer) int {
	if err := child(args); err != nil {
		fmt.Fprintln(errOut, "perfbench child:", err)
		return 1
	}
	return 0
}

func child(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing step")
	}
	step := args[0]
	fs := flag.NewFlagSet("perfbench "+step, flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	dir := fs.String("dir", "", "")
	size := fs.String("size", "full", "")
	secs := fs.Int("seconds", 10, "")
	trc := fs.Int("trace", 0, "")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	root, err := checkoutRoot()
	if err != nil {
		return err
	}
	e := &env{root: root, dir: *dir, seed: *seed, tiny: *size == "tiny"}
	switch step {
	case "setup":
		ref, err := w.setup(e)
		if err != nil {
			return err
		}
		return writeJSON(filepath.Join(e.dir, "setup.json"), ref)
	case "jobs":
		var ref setupResult
		if err := readJSON(filepath.Join(e.dir, "setup.json"), &ref); err != nil {
			return err
		}
		r := &runner{env: e, ref: &ref, res: &jobsResult{}}
		job, err := w.prepare(r)
		if err != nil {
			return err
		}
		if err := r.loop(job, time.Duration(*secs)*time.Second, *trc == 1); err != nil {
			return err
		}
		return writeJSON(filepath.Join(e.dir, "jobs.json"), r.res)
	}
	return fmt.Errorf("unknown step %q", step)
}

// gitCommit reads the checked-out commit from .git without running
// git; "none" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file of the checkout
// (hidden directories such as .git and .bench_build excluded), which
// identifies the code measured even where there is no commit.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		if _, err := hashFile(h, path); err != nil {
			return "unreadable"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
