package core_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"critlock/internal/core"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// simTrace runs a workload on the simulator and returns its trace.
func simTrace(t *testing.T, name string, threads int, seed int64) *trace.Trace {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatalf("workloads.Get(%q): %v", name, err)
	}
	rt := sim.New(sim.Config{Contexts: 8, Seed: seed})
	tr, _, err := workloads.Run(rt, spec, workloads.Params{Threads: threads, Seed: seed, Scale: 0.25})
	if err != nil {
		t.Fatalf("workloads.Run(%q): %v", name, err)
	}
	return tr
}

// segmented writes tr under dir with the given segment/frame sizes and
// opens it back, memory-mapped or buffered per noMmap.
func segmented(t *testing.T, tr *trace.Trace, segEvents, frameEvents int, noMmap bool) *segment.Reader {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "segs")
	err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: segEvents, FrameEvents: frameEvents})
	if err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	r, err := segment.OpenWith(dir, segment.ReadOptions{NoMmap: noMmap})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	if r.NumEvents() != len(tr.Events) {
		t.Fatalf("segmented trace has %d events, want %d", r.NumEvents(), len(tr.Events))
	}
	return r
}

// requireComposition asserts that a streamed analysis reproduces the
// in-memory one's composition breakdown, which the naive reference
// does not compute.
func requireComposition(t *testing.T, mem, str *core.Analysis, label string) {
	t.Helper()
	if !reflect.DeepEqual(mem.Composition(), str.Composition()) {
		t.Fatalf("%s: composition differs from the in-memory analysis", label)
	}
}

// TestAnalyzeStreamMatchesInMemory is the differential oracle for the
// one pipeline: Analyze over the in-memory trace and AnalyzeStream over
// its segments both match the naive reference analysis, across
// workloads, seeds, segment sizes (including the pathological 1-event
// segments), walk-window sizes, pass parallelism, mmap on/off and
// annotation spill mode — and every segmented run reproduces the
// in-memory composition.
func TestAnalyzeStreamMatchesInMemory(t *testing.T) {
	type cfg struct {
		workload string
		threads  int
		seed     int64
	}
	cases := []cfg{
		{"micro", 4, 1},
		{"micro", 8, 2},
		{"micro", 8, 3},
		{"radiosity", 8, 1},
		{"tsp", 6, 2},
		{"waternsq", 8, 1},
		{"uts", 6, 1},
		// Channel workloads: send/recv/select wakers must match the
		// reference's FIFO pairing at every segmentation.
		{"pipeline", 4, 1},
		{"pipeline", 6, 2},
		{"fanin", 4, 1},
		{"fanin", 6, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+string(rune('0'+c.threads))+"t", func(t *testing.T) {
			t.Parallel()
			tr := simTrace(t, c.workload, c.threads, c.seed)
			ref := reference(t, tr)
			mem, err := core.Analyze(tr, core.DefaultOptions())
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			requireReference(t, mem, ref, "Analyze")
			n := len(tr.Events)

			segSizes := []int{n/7 + 1, 64}
			if n < 3000 {
				// Small traces earn the pathological shapes.
				segSizes = append(segSizes, 7, 1)
			}
			check := func(r *segment.Reader, cfg core.Config, label string) {
				t.Helper()
				str, err := core.AnalyzeStream(r, cfg)
				if err != nil {
					t.Fatalf("AnalyzeStream(%s): %v", label, err)
				}
				requireReference(t, str, ref, label)
				requireComposition(t, mem, str, label)
			}
			for _, segEvents := range segSizes {
				for _, noMmap := range []bool{false, true} {
					r := segmented(t, tr, segEvents, 16, noMmap)
					for _, par := range []int{1, 2, 8} {
						check(r, core.Config{
							Options:          core.DefaultOptions(),
							CacheSegments:    2,
							Composition:      true,
							ParallelSegments: par,
						}, fmt.Sprintf("seg=%d mmap=%t par=%d", segEvents, !noMmap, par))
					}
				}
			}
			// Walk-window sweep (the backward walk is sequential at
			// any parallelism; vary its residency separately).
			r := segmented(t, tr, segSizes[0], 16, false)
			for _, window := range []int{1, 2, 4} {
				check(r, core.Config{
					Options:       core.DefaultOptions(),
					CacheSegments: window,
					Composition:   true,
				}, fmt.Sprintf("window=%d", window))
			}
			// Spill mode: a negative annotation budget forces the
			// temp-file path, sequential and parallel.
			for _, par := range []int{1, 8} {
				check(r, core.Config{
					Options:          core.DefaultOptions(),
					Composition:      true,
					ParallelSegments: par,
					AnnotationBudget: -1,
				}, fmt.Sprintf("spill par=%d", par))
			}
		})
	}
}

// TestAnalyzeStreamSpilledCollector exercises the full spill path: the
// collector spills per-thread runs to disk mid-run, the spiller merges
// them into segments, and the streaming analysis of the result matches
// the reference analysis (and the in-memory composition) of an
// identical unspilled run.
func TestAnalyzeStreamSpilledCollector(t *testing.T) {
	spec, err := workloads.Get("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	params := workloads.Params{Threads: 8, Seed: 7, Scale: 0.25}

	// Reference: plain run, analyzed in memory and by the reference.
	rt := sim.New(sim.Config{Contexts: 8, Seed: 7})
	tr, _, err := workloads.Run(rt, spec, params)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.Analyze(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Same run again, with an aggressive spill threshold.
	dir := filepath.Join(t.TempDir(), "spill")
	sp, err := segment.NewSpiller(dir, segment.Options{SegmentEvents: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := sim.New(sim.Config{Contexts: 8, Seed: 7})
	rt2.Collector().SetSpill(sp, 256)
	if _, _, err := workloads.Run(rt2, spec, params); err != nil {
		t.Fatal(err)
	}
	r, err := sp.Finish(rt2.Collector())
	if err != nil {
		t.Fatalf("Spiller.Finish: %v", err)
	}
	if r.NumEvents() != len(tr.Events) {
		t.Fatalf("spilled trace has %d events, want %d", r.NumEvents(), len(tr.Events))
	}
	str, err := core.AnalyzeStream(r, core.Config{Options: core.DefaultOptions(), Composition: true})
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	ref := reference(t, tr)
	requireReference(t, str, ref, "spilled")
	requireComposition(t, mem, str, "spilled")

	// The spiller's reader supports concurrent loads too: the parallel
	// passes must agree byte-for-byte.
	par, err := core.AnalyzeStream(r, core.Config{Options: core.DefaultOptions(), Composition: true, ParallelSegments: 4})
	if err != nil {
		t.Fatalf("AnalyzeStream(par=4): %v", err)
	}
	requireReference(t, par, ref, "spilled par=4")
	requireComposition(t, mem, par, "spilled par=4")
}

// TestAnalyzeStreamEmpty checks the empty-source contract.
func TestAnalyzeStreamEmpty(t *testing.T) {
	tr := simTrace(t, "micro", 4, 1)
	r := segmented(t, tr, 0, 0, false)
	// A reader over a real directory is never empty; exercise the
	// guard through a stub.
	if _, err := core.AnalyzeStream(emptySource{r}, core.DefaultConfig()); err != trace.ErrEmptyTrace {
		t.Fatalf("AnalyzeStream(empty) = %v, want ErrEmptyTrace", err)
	}
}

// TestAnalyzeRejectsEmpty: a nil or event-less trace is ErrEmptyTrace
// through Analyze and through TraceSource.
func TestAnalyzeRejectsEmpty(t *testing.T) {
	for _, tr := range []*trace.Trace{nil, {}} {
		if _, err := core.Analyze(tr, core.DefaultOptions()); err != trace.ErrEmptyTrace {
			t.Errorf("Analyze(%v) = %v, want ErrEmptyTrace", tr, err)
		}
		if _, err := core.AnalyzeSource(core.TraceSource(tr), core.DefaultConfig()); err != trace.ErrEmptyTrace {
			t.Errorf("AnalyzeSource(TraceSource(%v)) = %v, want ErrEmptyTrace", tr, err)
		}
	}
}

type emptySource struct{ *segment.Reader }

func (emptySource) NumEvents() int { return 0 }

// badObjectTrace is {start, chan-send obj=3, exit} on a one-object
// trace: an unvalidated event naming an object beyond the skeleton.
func badObjectTrace() *trace.Trace {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	b.Chan("c", 0)
	b.Start(0, main)
	b.Event(1, main, trace.EvChanSend, 3, 0)
	b.Exit(2, main)
	return b.Trace()
}

// TestOutOfRangeObjectIsAnError: pass 1 rejects an object event whose
// object lies outside the trace's object table (or is NoObj) with a
// malformed-trace error, on every source and at any parallelism,
// instead of panicking in the metric pass.
func TestOutOfRangeObjectIsAnError(t *testing.T) {
	noObjLock := func() *trace.Trace {
		b := trace.NewBuilder()
		main := b.Thread("main", trace.NoThread)
		b.Mutex("m")
		b.Start(0, main)
		b.Event(1, main, trace.EvLockAcquire, trace.NoObj, 0)
		b.Exit(2, main)
		return b.Trace()
	}
	for name, tr := range map[string]*trace.Trace{"chan obj=3": badObjectTrace(), "lock NoObj": noObjLock()} {
		if _, err := core.Analyze(tr, core.Options{ClipHold: true}); !errors.Is(err, trace.ErrMalformed) {
			t.Errorf("%s: Analyze(no validation) = %v, want ErrMalformed", name, err)
		}
		if _, err := core.Analyze(tr, core.DefaultOptions()); !errors.Is(err, trace.ErrMalformed) {
			t.Errorf("%s: Analyze(validated) = %v, want ErrMalformed", name, err)
		}
		for _, par := range []int{1, 2} {
			_, err := core.AnalyzeStream(splitSource(tr, 1), core.Config{Options: core.DefaultOptions(), ParallelSegments: par})
			if !errors.Is(err, trace.ErrMalformed) {
				t.Errorf("%s: AnalyzeStream(par=%d) = %v, want ErrMalformed", name, par, err)
			}
		}
	}
}
