package core

import (
	"errors"
	"fmt"
	"time"

	"critlock/internal/obs"
	"critlock/internal/trace"
)

// ErrNeedsRawEvents marks an operation that replays the raw event
// stream (Gantt timelines, lock-order graphs, the online predictor)
// applied to a streamed analysis, which keeps only the registration
// skeleton. Re-run the operation on a full in-memory trace.
var ErrNeedsRawEvents = errors.New("needs raw events (streamed analysis keeps only the trace skeleton)")

// HasEvents reports whether the analysis retained the raw event
// stream. Streamed analyses hold only the skeleton, so event-replay
// consumers (timeline renderers, lock-order graphs) must check this —
// or propagate ErrNeedsRawEvents.
func (a *Analysis) HasEvents() bool {
	return a.Trace != nil && len(a.Trace.Events) > 0
}

// Config is the unified analysis configuration: the Options plus the
// knobs of the three passes. The zero value means unclipped holds and
// no validation; start from DefaultConfig for the recommended
// defaults.
type Config struct {
	Options
	// CacheSegments is the backward walk's window: how many decoded
	// segments stay resident at once (0 = default, minimum 1). An
	// in-memory trace is one segment, so any value is equivalent there.
	CacheSegments int
	// TmpDir hosts the waker-annotation spill file ("" = os.TempDir).
	TmpDir string
	// Composition retains per-thread hold intervals so
	// Analysis.Composition works; it costs O(invocations) memory, so it
	// is off by default for segmented traces. TraceSource always turns
	// it on.
	Composition bool
	// ParallelSegments runs passes 1 and 3 over disjoint segment ranges
	// on up to this many goroutines, merged deterministically (0 or 1 =
	// sequential). Results are bit-identical at any setting. An
	// in-memory trace is one segment, so it always runs sequentially.
	ParallelSegments int
	// NoMmap forces buffered reads of segment files instead of
	// memory-mapping them. Consulted by sources that open segment
	// directories (the facade's SegmentDirSource, the server), not by
	// the passes themselves.
	NoMmap bool
	// AnnotationBudget caps the resident waker-annotation shards
	// (9 bytes per event); a run over budget spills them to a TmpDir
	// temp file instead. 0 = DefaultAnnotationBudget, negative =
	// always spill.
	AnnotationBudget int64
}

// DefaultConfig returns the recommended configuration: clipped hold
// accounting with validation enabled.
func DefaultConfig() Config { return Config{Options: DefaultOptions()} }

// Source is where the unified Analyze entry point reads a trace from:
// an in-memory event array, an open segmented-trace reader, or any
// other provider. Every source runs the same three passes; the two
// built-in constructors are TraceSource and StreamSource, and callers
// with custom acquisition (open a directory lazily, download first)
// implement Run and delegate to one of them.
type Source interface {
	// Run executes the analysis over this source.
	Run(cfg Config) (*Analysis, error)
}

// traceSource analyzes an in-memory trace.
type traceSource struct{ tr *trace.Trace }

// TraceSource adapts an in-memory trace: Analyze validates it (with
// Options.Validate) and runs the streaming passes over it as a single
// in-memory segment. Composition is always retained, and
// Analysis.Trace is the full trace, so event-replay consumers work.
func TraceSource(tr *trace.Trace) Source { return traceSource{tr} }

func (s traceSource) Run(cfg Config) (*Analysis, error) {
	tr := s.tr
	if tr == nil || len(tr.Events) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	h := newObsHook(cfg.Observer, len(tr.Events))
	if cfg.Validate {
		start := h.phaseStart("validate")
		if err := trace.Validate(tr); err != nil {
			return nil, fmt.Errorf("core: invalid trace: %w", err)
		}
		h.phaseDone("validate", start, int64(len(tr.Events)))
	}
	cfg.Composition = true
	return analyzeStream(newTraceColumns(tr), cfg, h)
}

// traceColumns serves an in-memory trace as a one-segment
// ColumnSource. The events are converted to columns once; every load
// hands out the same columns with their capacity clipped to their
// length, so no pass can write through them. Its skeleton is the full
// trace, which the analysis keeps as Analysis.Trace.
type traceColumns struct {
	tr   *trace.Trace
	cols trace.Columns
}

func newTraceColumns(tr *trace.Trace) *traceColumns {
	c := &traceColumns{tr: tr}
	c.cols.Reset(len(tr.Events))
	c.cols.AppendEvents(tr.Events)
	return c
}

func (c *traceColumns) Skeleton() *trace.Trace       { return c.tr }
func (c *traceColumns) NumEvents() int               { return len(c.tr.Events) }
func (c *traceColumns) NumSegments() int             { return 1 }
func (c *traceColumns) SegmentBounds(int) (int, int) { return 0, len(c.tr.Events) }

func (c *traceColumns) LoadSegment(_ int, buf []trace.Event) ([]trace.Event, error) {
	return append(buf[:0], c.tr.Events...), nil
}

func (c *traceColumns) LoadColumns(_ int, cols *trace.Columns) (int64, error) {
	n := c.cols.Len()
	*cols = trace.Columns{
		T:      c.cols.T[:n:n],
		Seq:    c.cols.Seq[:n:n],
		Thread: c.cols.Thread[:n:n],
		Kind:   c.cols.Kind[:n:n],
		Obj:    c.cols.Obj[:n:n],
		Arg:    c.cols.Arg[:n:n],
	}
	return 0, nil
}

// streamSource analyzes a segmented trace in bounded memory.
type streamSource struct{ src SegmentSource }

// StreamSource adapts a segmented trace (an open segment.Reader, a
// spiller's result, or any SegmentSource): Analyze runs the
// three-pass bounded-memory pipeline.
func StreamSource(src SegmentSource) Source { return streamSource{src} }

func (s streamSource) Run(cfg Config) (*Analysis, error) {
	return analyzeStream(s.src, cfg, newObsHook(cfg.Observer, s.src.NumEvents()))
}

// AnalyzeSource is the unified entry point: every consumer — the
// facade, the CLIs, the serving layer — dispatches through it, so
// options and instrumentation behave identically everywhere.
func AnalyzeSource(src Source, cfg Config) (*Analysis, error) {
	return src.Run(cfg)
}

// obsHook adapts an obs.Observer for the analysis hot path: nil-safe
// (a nil hook is free), and it owns the run's cumulative Progress
// snapshot. Events count per phase (each pass re-reads the trace);
// Segments and BytesSpilled accumulate over the whole run.
type obsHook struct {
	o obs.Observer
	p obs.Progress
}

// newObsHook returns nil — the free hook — when o is nil.
func newObsHook(o obs.Observer, totalEvents int) *obsHook {
	if o == nil {
		return nil
	}
	return &obsHook{o: o, p: obs.Progress{TotalEvents: int64(totalEvents)}}
}

// phaseStart begins a phase, resetting the per-phase event cursor.
func (h *obsHook) phaseStart(name string) time.Time {
	if h == nil {
		return time.Time{}
	}
	h.p.Phase = name
	h.p.Events = 0
	h.o.PhaseStart(name)
	return time.Now()
}

// phaseDone completes a phase: a final snapshot with the phase's full
// event count (pass events < 0 to keep whatever the phase's scanned
// calls accumulated — the walk touches only the segments the path
// crosses), then the duration callback. The snapshot lands first so
// per-phase throughput derived at PhaseDone (bytes since PhaseStart
// over the duration) sees the phase's complete byte count.
func (h *obsHook) phaseDone(name string, start time.Time, events int64) {
	if h == nil {
		return
	}
	if events >= 0 {
		h.p.Events = events
	}
	h.o.OnProgress(h.p)
	h.o.PhaseDone(name, time.Since(start))
}

// scanned records one segment load of n events (bytes encoded body
// bytes, 0 if unknown) and emits a snapshot. Must be called from one
// goroutine; parallel passes accumulate locally and report through
// scannedBulk after their barrier.
func (h *obsHook) scanned(n int, bytes int64) {
	if h == nil {
		return
	}
	h.p.Segments++
	h.p.Events += int64(n)
	h.p.BytesRead += bytes
	h.o.OnProgress(h.p)
}

// scannedBulk folds a parallel pass's totals into the snapshot in one
// step — workers must not touch the hook concurrently.
func (h *obsHook) scannedBulk(segments int, events int64, bytes int64) {
	if h == nil {
		return
	}
	h.p.Segments += int64(segments)
	h.p.Events += events
	h.p.BytesRead += bytes
	h.o.OnProgress(h.p)
}

// spilled records n bytes written to spill storage (snapshot emitted
// with the next scanned/phaseDone, not per write).
func (h *obsHook) spilled(n int64) {
	if h != nil {
		h.p.BytesSpilled += n
	}
}
