package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// captureStdout runs fn with os.Stdout redirected to a temp file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSlackGolden pins `cla -slack -top 0` on every registered
// workload (4 threads, seed 1, scale 0.25) against
// testdata/slack.golden. Refresh it with UPDATE_CLA_GOLDEN=1 after an
// intended change.
func TestSlackGolden(t *testing.T) {
	var got bytes.Buffer
	dir := t.TempDir()
	for _, name := range workloads.Names() {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 8, Seed: 1}), spec,
			workloads.Params{Threads: 4, Seed: 1, Scale: 0.25})
		if err != nil {
			t.Fatalf("running %s: %v", name, err)
		}
		path := filepath.Join(dir, name+".cltr")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary(f, tr); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(&got, "=== %s\n", name)
		got.Write(captureStdout(t, func() error { return run([]string{"-slack", "-top", "0", path}) }))
	}

	golden := filepath.Join("testdata", "slack.golden")
	if os.Getenv("UPDATE_CLA_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_CLA_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("cla -slack output drifted from %s (regenerate with UPDATE_CLA_GOLDEN=1 if intended)", golden)
	}
}
