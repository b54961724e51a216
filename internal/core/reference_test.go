package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"critlock/internal/core"
	"critlock/internal/core/naive"
	"critlock/internal/sim"
	"critlock/internal/synth"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// requireReference asserts that an analysis matches the naive
// reference analysis of the same trace.
func requireReference(t *testing.T, got, want *core.Analysis, label string) {
	t.Helper()
	if d := naive.Diff(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// reference runs the naive reference analysis with clipped holds.
func reference(t *testing.T, tr *trace.Trace) *core.Analysis {
	t.Helper()
	ref, err := naive.Analyze(tr, true)
	if err != nil {
		t.Fatalf("naive.Analyze: %v", err)
	}
	return ref
}

// TestReferenceAgreesOnWorkloads runs every registered workload at two
// seeds and 4, 8 and 24 threads, and holds Analyze to the naive
// reference on each trace.
func TestReferenceAgreesOnWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, threads := range []int{4, 8, 24} {
			for _, seed := range []int64{1, 2} {
				name, threads, seed := name, threads, seed
				t.Run(fmt.Sprintf("%s/%dt/seed%d", name, threads, seed), func(t *testing.T) {
					t.Parallel()
					tr := simTrace(t, name, threads, seed)
					got, err := core.Analyze(tr, core.DefaultOptions())
					if err != nil {
						t.Fatalf("Analyze: %v", err)
					}
					requireReference(t, got, reference(t, tr), "Analyze")
				})
			}
		}
	}
}

// randomSynth builds a random declarative program: a few locks
// (exclusive and shared, sometimes zero-length, sometimes skipped),
// compute steps and whole-team barriers over a few phases.
func randomSynth(rng *rand.Rand) *synth.Config {
	cfg := &synth.Config{Name: "rand", Threads: 2 + rng.Intn(5)}
	for i := 0; i < 1+rng.Intn(4); i++ {
		cfg.Locks = append(cfg.Locks, fmt.Sprintf("L%d", i))
	}
	if rng.Intn(2) == 0 {
		cfg.Barriers = []synth.BarrierDef{{Name: "B"}}
	}
	for p := 0; p < 1+rng.Intn(3); p++ {
		ph := synth.Phase{Iterations: 1 + rng.Intn(6)}
		for s := 0; s < 1+rng.Intn(5); s++ {
			var st synth.Step
			switch k := rng.Intn(10); {
			case k < 3:
				st.Compute = 1 + rng.Int63n(5000)
			case k < 9 || cfg.Barriers == nil:
				st.Lock = cfg.Locks[rng.Intn(len(cfg.Locks))]
				st.Hold = rng.Int63n(3000)
				st.Shared = rng.Intn(4) == 0
				if rng.Intn(3) == 0 {
					st.Prob = 0.5
				}
			default:
				st.Barrier = "B" // every thread, every iteration: no skips
			}
			ph.Steps = append(ph.Steps, st)
		}
		cfg.Phases = append(cfg.Phases, ph)
	}
	return cfg
}

// synthTrace simulates cfg with the given seed.
func synthTrace(t testing.TB, cfg *synth.Config, seed int64) *trace.Trace {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("random program invalid: %v", err)
	}
	tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 1 + int(seed%4), Seed: seed}), cfg.Spec(),
		workloads.Params{Seed: seed})
	if err != nil {
		t.Fatalf("running random program: %v", err)
	}
	return tr
}

// TestReferenceAgreesOnSynth holds Analyze and a segmented, parallel
// streaming run to the naive reference on random synth programs.
func TestReferenceAgreesOnSynth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		cfg := randomSynth(rng)
		tr := synthTrace(t, cfg, int64(i))
		ref := reference(t, tr)
		for _, clip := range []bool{true, false} {
			got, err := core.Analyze(tr, core.Options{ClipHold: clip, Validate: true})
			if err != nil {
				t.Fatalf("program %d: Analyze: %v", i, err)
			}
			want := ref
			if !clip {
				if want, err = naive.Analyze(tr, false); err != nil {
					t.Fatal(err)
				}
			}
			requireReference(t, got, want, fmt.Sprintf("program %d clip=%t", i, clip))
		}
		str, err := core.AnalyzeStream(splitSource(tr, 1+len(tr.Events)/5), core.Config{
			Options: core.DefaultOptions(), CacheSegments: 2, ParallelSegments: 3,
		})
		if err != nil {
			t.Fatalf("program %d: AnalyzeStream: %v", i, err)
		}
		requireReference(t, str, ref, fmt.Sprintf("program %d segmented", i))
	}
}

// splitSource serves an in-memory trace as a SegmentSource cut into
// segments of segEvents events.
func splitSource(tr *trace.Trace, segEvents int) core.SegmentSource {
	return splitTrace{tr: tr, seg: max(segEvents, 1)}
}

type splitTrace struct {
	tr  *trace.Trace
	seg int
}

func (s splitTrace) Skeleton() *trace.Trace {
	skel := *s.tr
	skel.Events = nil
	return &skel
}
func (s splitTrace) NumEvents() int   { return len(s.tr.Events) }
func (s splitTrace) NumSegments() int { return (len(s.tr.Events) + s.seg - 1) / s.seg }
func (s splitTrace) SegmentBounds(i int) (int, int) {
	first := i * s.seg
	return first, min(s.seg, len(s.tr.Events)-first)
}
func (s splitTrace) LoadSegment(i int, buf []trace.Event) ([]trace.Event, error) {
	first, count := s.SegmentBounds(i)
	return append(buf[:0], s.tr.Events[first:first+count]...), nil
}
