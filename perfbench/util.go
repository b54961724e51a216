package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"critlock/internal/report"
	"critlock/internal/segment"
)

// median returns the middle value of xs (mean of the two middle ones
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// dirInput describes a segment directory as a benchmark input: a
// digest over its file names and contents, the on-disk bytes and the
// segment and event counts from its manifest.
func dirInput(name, dir string) (inputInfo, error) {
	info := inputInfo{Name: name}
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return info, err
	}
	sort.Strings(files)
	for _, path := range files {
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		n, err := hashFile(h, path)
		if err != nil {
			return info, err
		}
		info.Bytes += n
	}
	info.Digest = hex.EncodeToString(h.Sum(nil))
	r, err := segment.Open(dir)
	if err != nil {
		return info, err
	}
	defer r.Close()
	info.Segments = r.NumSegments()
	info.Events = int64(r.NumEvents())
	return info, nil
}

// hashFile feeds path's bytes into h and returns how many there were.
func hashFile(h hash.Hash, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return io.Copy(h, f)
}

// fileDigest is the hex SHA-256 of a file's contents.
func fileDigest(path string) (string, error) {
	h := sha256.New()
	if _, err := hashFile(h, path); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// exportDigest is the hex SHA-256 of rep in its WriteExport form, the
// bytes a job writes to disk.
func exportDigest(rep *report.Export) (string, error) {
	h := sha256.New()
	w := bufio.NewWriter(h)
	if err := report.WriteExport(w, rep); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeJSON stores v at path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readJSON loads path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// childRun is one finished child process: its wall time (spawn to
// exit) and peak resident set size.
type childRun struct {
	Wall    time.Duration
	PeakRSS int64
	Stdout  string
}

// runChild runs name with args in dir under env, copying its standard
// error to errOut, and waits for it to exit. A non-zero exit is an
// error that carries the captured standard output.
func runChild(dir string, env []string, errOut io.Writer, name string, args ...string) (childRun, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = env
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = errOut
	start := time.Now()
	err := cmd.Run()
	res := childRun{Wall: time.Since(start), Stdout: out.String()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.PeakRSS = int64(ru.Maxrss) * 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w (stdout: %.300s)", filepath.Base(name), strings.Join(args, " "), err, out.String())
	}
	return res, nil
}

// childEnv is the environment every child process runs under: at most
// nproc OS threads executing Go code, and temporary files inside the
// benchmark's work directory.
func childEnv(tmp string, extra ...string) []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "TMPDIR=") {
			continue
		}
		env = append(env, kv)
	}
	env = append(env, fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()), "TMPDIR="+tmp)
	return append(env, extra...)
}
