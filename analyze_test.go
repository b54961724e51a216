package critlock_test

import (
	"reflect"
	"testing"

	"critlock"
	"critlock/internal/core/naive"
	"critlock/internal/segment"
)

// workloadTrace builds a deterministic trace of one modelled workload.
func workloadTrace(t *testing.T, name string, threads int) *critlock.Trace {
	t.Helper()
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, name, critlock.WorkloadParams{Threads: threads, Seed: 1})
	if err != nil {
		t.Fatalf("running %s: %v", name, err)
	}
	return tr
}

// TestAnalyzeSourcesAgree is the source-level differential oracle: the
// unified Analyze must match the naive reference analysis whether the
// events arrive in memory (TraceSource) or stream from a segment
// directory (SegmentDirSource) at every walk window and pass
// parallelism — same critical path, lock, channel and thread
// statistics, same totals.
func TestAnalyzeSourcesAgree(t *testing.T) {
	for _, tc := range []struct {
		workload string
		threads  int
	}{
		{"micro", 4},
		{"tsp", 6},
		{"waternsq", 4},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			tr := workloadTrace(t, tc.workload, tc.threads)
			ref, err := naive.Analyze(tr, true)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}

			mem, err := critlock.Analyze(critlock.TraceSource(tr))
			if err != nil {
				t.Fatalf("TraceSource: %v", err)
			}
			if d := naive.Diff(mem, ref); d != "" {
				t.Errorf("TraceSource: %s", d)
			}

			dir := t.TempDir()
			if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 64}); err != nil {
				t.Fatalf("writing segments: %v", err)
			}
			for _, window := range []int{1, 3} {
				for _, par := range []int{1, 4} {
					var snapshots int
					streamed, err := critlock.Analyze(critlock.SegmentDirSource(dir),
						critlock.WithWindow(window),
						critlock.WithParallelSegments(par),
						critlock.WithProgress(func(critlock.Progress) { snapshots++ }))
					if err != nil {
						t.Fatalf("SegmentDirSource: %v", err)
					}
					if d := naive.Diff(streamed, ref); d != "" {
						t.Errorf("SegmentDirSource window=%d par=%d: %s", window, par, d)
					}
					if snapshots == 0 {
						t.Errorf("WithProgress observer never fired")
					}
				}
			}
		})
	}
}

// TestObserverDoesNotChangeResults pins the instrumentation invariant:
// attaching observers must not alter any result, and an in-memory
// trace reports validation and then the three passes every source
// runs.
func TestObserverDoesNotChangeResults(t *testing.T) {
	tr := workloadTrace(t, "micro", 4)

	plain, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	observed, err := critlock.Analyze(critlock.TraceSource(tr),
		critlock.WithProgress(func(p critlock.Progress) {
			if len(phases) == 0 || phases[len(phases)-1] != p.Phase {
				phases = append(phases, p.Phase)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Locks, observed.Locks) || !reflect.DeepEqual(plain.CP, observed.CP) {
		t.Errorf("observation changed analysis results")
	}
	want := []string{"validate", "pass1", "walk", "pass3"}
	if !reflect.DeepEqual(phases, want) {
		t.Errorf("in-memory phases = %v, want %v", phases, want)
	}
}

// TestAnalyzeOptionSpellingsAgree pins the finalized facade: every way
// of spelling the same analysis through Analyze — WithOptions vs the
// individual options, SegmentsSource vs SegmentDirSource, and the
// performance knobs (parallelism, mmap, annotation budget), which must
// never change results — produces identical output.
func TestAnalyzeOptionSpellingsAgree(t *testing.T) {
	tr := workloadTrace(t, "micro", 4)

	unified, err := critlock.Analyze(critlock.TraceSource(tr), critlock.WithClipHold(false))
	if err != nil {
		t.Fatal(err)
	}
	wholesale, err := critlock.Analyze(critlock.TraceSource(tr),
		critlock.WithOptions(critlock.AnalyzeOptions{ClipHold: false, Validate: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unified.Locks, wholesale.Locks) {
		t.Errorf("WithOptions disagrees with WithClipHold")
	}

	dir := t.TempDir()
	if err := segment.WriteTrace(dir, tr, segment.Options{}); err != nil {
		t.Fatal(err)
	}
	fromDir, err := critlock.Analyze(critlock.SegmentDirSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	rdr, err := segment.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdr.Close()
	fromReader, err := critlock.Analyze(critlock.SegmentsSource(rdr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDir.Locks, fromReader.Locks) {
		t.Errorf("SegmentsSource disagrees with Analyze(SegmentDirSource)")
	}

	tuned, err := critlock.Analyze(critlock.SegmentDirSource(dir),
		critlock.WithParallelSegments(8),
		critlock.WithMmap(false),
		critlock.WithAnnotationBudget(-1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDir.Locks, tuned.Locks) || !reflect.DeepEqual(fromDir.CP, tuned.CP) {
		t.Errorf("performance options changed analysis results")
	}
}
