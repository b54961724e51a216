package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"critlock"
	"critlock/internal/cliflags"
	"critlock/internal/hazard"
	"critlock/internal/obs"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
)

var streamMix = workload{
	name: "stream-mix-2m",
	why: "2M streamed events: segment decode, the three streamed passes, the hazard fold and the export; " +
		"cond, channel and held-across-hand-off traffic reach the pairing and inherited-hold paths",
	setup:   streamSetup,
	prepare: streamPrepare,
}

// streamSource is the report Source both the job and the reference
// carry, so their exports compare byte for byte.
const streamSource = "segments"

// spillThreshold is the collector's per-thread buffer size before it
// spills to segment run files.
const spillThreshold = 1 << 14

// streamRef is the stream-mix reference, computed at set-up.
type streamRef struct {
	// ExportDigest is the digest of the JSON report computed through
	// the in-memory source on the same events.
	ExportDigest string `json:"export_digest"`
}

func streamSize(tiny bool) mixSize {
	if tiny {
		return mixSize{Workers: 4, Rounds: 100}
	}
	return mixSize{Workers: 8, Rounds: 6250}
}

// claConfig is what `cla -segdir DIR -hazards -jsonreport OUT` passes
// by default, read from the same flag definitions cla registers, so a
// changed default shows up here.
type claConfig struct {
	window, par int
	mmap        bool
	annBudget   int64
}

func claDefaults() claConfig {
	fs := flag.NewFlagSet("cla", flag.ContinueOnError)
	window, par := cliflags.Window(fs), cliflags.Par(fs)
	mmap, ann := cliflags.Mmap(fs), cliflags.AnnBudget(fs)
	if err := fs.Parse(nil); err != nil {
		panic(err) // parsing no arguments cannot fail
	}
	return claConfig{window: *window, par: *par, mmap: *mmap, annBudget: *ann}
}

func (c claConfig) options() []critlock.Option {
	return []critlock.Option{
		critlock.WithClipHold(true),
		critlock.WithWindow(c.window),
		critlock.WithComposition(false),
		critlock.WithParallelSegments(c.par),
		critlock.WithMmap(c.mmap),
		critlock.WithAnnotationBudget(c.annBudget),
	}
}

// streamSetup runs the stream-mix program on the simulator with its
// collector spilling to a segment directory, then computes the
// reference report through the in-memory source on the same events.
func streamSetup(e *env) (*setupResult, error) {
	segdir := filepath.Join(e.dir, "segs")
	if err := os.RemoveAll(segdir); err != nil {
		return nil, err
	}
	s := sim.New(sim.Config{Contexts: 24, Seed: e.seed})
	sp, err := segment.NewSpiller(segdir, segment.Options{})
	if err != nil {
		return nil, err
	}
	s.Collector().SetSpill(sp, spillThreshold)
	s.SetMeta("workload", "stream-mix")
	if _, _, err := s.Run(buildMix(s, streamSize(e.tiny))); err != nil {
		return nil, fmt.Errorf("stream-mix program: %w", err)
	}
	rdr, err := sp.Finish(s.Collector())
	if err != nil {
		return nil, err
	}
	tr, err := rdr.ReadAll()
	rdr.Close()
	if err != nil {
		return nil, err
	}
	an, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	hz, err := hazard.FromTrace(tr)
	if err != nil {
		return nil, fmt.Errorf("reference hazards: %w", err)
	}
	rep := report.BuildExport("cla", streamSource, true, an)
	rep.Hazards = hz
	digest, err := exportDigest(rep)
	if err != nil {
		return nil, err
	}
	in, err := dirInput("stream-mix segments", segdir)
	if err != nil {
		return nil, err
	}
	return &setupResult{Inputs: []inputInfo{in}, Stream: &streamRef{ExportDigest: digest}}, nil
}

// checkMixFacts checks what the stream-mix program plants: mix.hot
// tops CP Time %, the critical path covers the whole run, and the
// hazard pass finds exactly the one A↔B cycle and the one lost signal.
func checkMixFacts(rep *report.Export) error {
	var bad []string
	if len(rep.Locks) == 0 || rep.Locks[0].Name != mixHotLock {
		top := "none"
		if len(rep.Locks) > 0 {
			top = rep.Locks[0].Name
		}
		bad = append(bad, fmt.Sprintf("top lock %s, want %s", top, mixHotLock))
	}
	if math.Abs(rep.Summary.Coverage-1) > 1e-12 {
		bad = append(bad, fmt.Sprintf("coverage %.6f, want 1", rep.Summary.Coverage))
	}
	hz := rep.Hazards
	switch {
	case hz == nil:
		bad = append(bad, "no hazard report")
	case len(hz.Cycles) != 1 || strings.Join(hz.Cycles[0].Locks, ",") != "mix.A,mix.B":
		bad = append(bad, fmt.Sprintf("cycles %v, want one {mix.A mix.B}", cycleNames(hz)))
	case len(hz.LostSignals) != 1 || hz.LostSignals[0].Object != mixLostCV:
		bad = append(bad, fmt.Sprintf("%d lost signals, want one on %s", len(hz.LostSignals), mixLostCV))
	case len(hz.GuardIssues) != 0:
		bad = append(bad, fmt.Sprintf("%d guard issues, want none", len(hz.GuardIssues)))
	}
	if len(bad) > 0 {
		return fmt.Errorf("stream-mix facts: %s", strings.Join(bad, "; "))
	}
	return nil
}

func cycleNames(hz *hazard.Report) [][]string {
	var out [][]string
	for _, c := range hz.Cycles {
		out = append(out, c.Locks)
	}
	return out
}

// streamPrepare returns the stream-mix job: segment directory →
// Analyze(SegmentDirSource) → hazard.FromSegments → BuildExport +
// WriteExport, with cla's default options. Each job's report must
// equal the set-up reference byte for byte and show the planted facts.
func streamPrepare(r *runner) (func(span bool) (jobSample, error), error) {
	segdir := filepath.Join(r.env.dir, "segs")
	out := filepath.Join(r.env.dir, "report.json")
	cfg := claDefaults()
	in := r.ref.Inputs[0]
	var cols trace.Columns

	return func(span bool) (jobSample, error) {
		var layers map[string]float64
		if span {
			layers = map[string]float64{}
		}
		start := time.Now()
		rep, err := streamJob(segdir, out, cfg, layers)
		wall := seconds(time.Since(start))
		if err == nil {
			err = checkStreamOutput(out, rep, r.ref.Stream.ExportDigest)
		}
		r.op(err)
		// Dropping the checked report keeps its dirty pages from piling
		// up into writeback that would land inside later jobs.
		if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
			return jobSample{}, err
		}
		s := jobSample{jobRecord: jobRecord{Wall: wall, Latency: []float64{wall}, Events: in.Events, Bytes: in.Bytes}}
		if span {
			t0 := time.Now()
			if err := decodeSweep(segdir, cfg, &cols); err != nil {
				return s, err
			}
			layers["segment.decode_s"] = seconds(time.Since(t0))
			var named float64
			for _, k := range []string{"segment.open_s", "core.pass1_s", "core.walk_s", "core.pass3_s", "hazard.fold_s", "report.build_s", "report.write_s"} {
				named += layers[k]
			}
			layers["bench.unaccounted_s"] = wall - named
			s.layers = layers
		}
		return s, nil
	}, nil
}

// streamJob runs the stream-mix job. SegmentDirSource is spelled out
// as the open it performs followed by SegmentsSource, so the open can
// get a span of its own. With layers non-nil it records a span around
// every call into a layer, plus the analysis observer's phase timers
// and final progress snapshot.
func streamJob(segdir, out string, cfg claConfig, layers map[string]float64) (*report.Export, error) {
	span := func(key string, t time.Time) {
		if layers != nil {
			layers[key] += seconds(time.Since(t))
		}
	}
	opts := cfg.options()
	var last obs.Progress
	if layers != nil {
		opts = append(opts, critlock.WithObserver(obs.Funcs{
			Done:     func(phase string, d time.Duration) { layers["core."+phase+"_s"] += d.Seconds() },
			Progress: func(p obs.Progress) { last = p },
		}))
	}
	t := time.Now()
	rdr, err := segment.OpenWith(segdir, segment.ReadOptions{NoMmap: !cfg.mmap})
	if err != nil {
		return nil, err
	}
	span("segment.open_s", t)
	an, err := critlock.Analyze(critlock.SegmentsSource(rdr), opts...)
	nseg := rdr.NumSegments()
	rdr.Close()
	if err != nil {
		return nil, err
	}

	t = time.Now()
	rdr, err = segment.OpenWith(segdir, segment.ReadOptions{NoMmap: !cfg.mmap})
	if err != nil {
		return nil, err
	}
	span("segment.open_s", t)
	t = time.Now()
	hz, err := hazard.FromSegments(rdr, cfg.par)
	span("hazard.fold_s", t)
	rdr.Close()
	if err != nil {
		return nil, err
	}

	t = time.Now()
	rep := report.BuildExport("cla", streamSource, true, an)
	rep.Hazards = hz
	span("report.build_s", t)
	t = time.Now()
	if err := writeExportFile(out, rep); err != nil {
		return nil, err
	}
	span("report.write_s", t)
	if layers != nil {
		layers["core.segment_loads"] = float64(last.Segments)
		layers["core.loads_per_segment"] = float64(last.Segments) / float64(nseg)
		layers["core.bytes_spilled"] = float64(last.BytesSpilled)
		layers["core.cp_pieces"] = float64(len(an.CP.Pieces))
		layers["core.cp_jumps"] = float64(an.CP.Jumps)
		layers["hazard.findings"] = float64(hz.Total())
		if st, err := os.Stat(out); err == nil {
			layers["report.json_bytes"] = float64(st.Size())
		}
	}
	return rep, nil
}

// writeExportFile writes rep to path as cla -jsonreport does.
func writeExportFile(path string, rep *report.Export) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteExport(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkStreamOutput compares the written report with the reference
// and checks the planted facts.
func checkStreamOutput(out string, rep *report.Export, want string) error {
	got, err := fileDigest(out)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("stream-mix report digest %s, reference %s", got, want)
	}
	return checkMixFacts(rep)
}

// decodeSweep is the decode-only rung: a fresh reader loads every
// segment into columns once, which opens, checksums and decodes each
// segment image without any analysis.
func decodeSweep(segdir string, cfg claConfig, cols *trace.Columns) error {
	rdr, err := segment.OpenWith(segdir, segment.ReadOptions{NoMmap: !cfg.mmap})
	if err != nil {
		return err
	}
	defer rdr.Close()
	for i := 0; i < rdr.NumSegments(); i++ {
		if _, err := rdr.LoadColumns(i, cols); err != nil {
			return err
		}
	}
	return nil
}
