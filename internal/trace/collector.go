package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Collector accumulates events during an execution.
//
// It mirrors the paper's instrumentation module: each thread appends
// events to a private buffer (no cross-thread synchronization on the
// hot path beyond one atomic sequence counter), and the buffers are
// merged into a single time-ordered Trace when the run completes.
//
// Thread and object registration take a mutex; they are rare compared
// to event emission.
type Collector struct {
	seq atomic.Uint64

	mu      sync.Mutex
	threads []ThreadInfo
	objects []ObjectInfo
	buffers []*ThreadBuffer
	meta    map[string]string
	sink    atomic.Pointer[StreamWriter]
	spill   atomic.Pointer[spillConfig]
}

// SpillSink receives per-thread event runs when a buffer crosses the
// spill threshold; a buffer spills as one or more consecutive runs.
// Runs arrive in the emitting thread's order, so each thread's runs
// concatenate to a canonically (T, Seq) sorted sequence; runs of
// different threads interleave arbitrarily. The events slice is only
// valid for the duration of the call. Implementations must latch their own I/O
// errors (Emit cannot surface them) and report the first one when
// their results are collected — segment.Spiller does exactly that.
type SpillSink interface {
	SpillRun(thread ThreadID, events []Event) error
}

// spillConfig pairs a sink with its threshold so Emit reads both with
// one atomic load.
type spillConfig struct {
	sink      SpillSink
	threshold int
}

// SetSpill attaches a spill sink: from now on, any per-thread buffer
// reaching thresholdEvents is flushed to the sink and cleared, so the
// collector's memory stays bounded by threads × threshold regardless
// of trace length. Attach before the run starts; call DrainSpill after
// it completes to push out the partial buffers.
func (c *Collector) SetSpill(sink SpillSink, thresholdEvents int) {
	if thresholdEvents < 1 {
		thresholdEvents = 1
	}
	c.spill.Store(&spillConfig{sink: sink, threshold: thresholdEvents})
}

// DrainSpill flushes every non-empty per-thread buffer to the spill
// sink and clears it. Call once emission has stopped; a Finish after
// DrainSpill returns the registration skeleton with no events.
func (c *Collector) DrainSpill() error {
	cfg := c.spill.Load()
	if cfg == nil {
		return nil
	}
	c.mu.Lock()
	bufs := append([]*ThreadBuffer(nil), c.buffers...)
	c.mu.Unlock()
	var first error
	for _, b := range bufs {
		b.mu.Lock()
		if err := b.spillLocked(cfg.sink); err != nil && first == nil {
			first = err
		}
		b.mu.Unlock()
	}
	return first
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{meta: make(map[string]string)}
}

// SetMeta records a metadata key/value pair on the resulting trace.
func (c *Collector) SetMeta(key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meta[key] = value
	if sink := c.sink.Load(); sink != nil {
		sink.Meta(key, value)
	}
}

// SetSink attaches a streaming writer: registrations and metadata
// recorded so far are replayed to it, and everything from now on is
// forwarded as it happens. Attach before the run starts — events
// already buffered are not replayed. Close the sink after Finish.
func (c *Collector) SetSink(sw *StreamWriter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink.Store(sw)
	for k, v := range c.meta {
		if err := sw.Meta(k, v); err != nil {
			return err
		}
	}
	for _, th := range c.threads {
		if err := sw.Thread(th.Name, th.Creator); err != nil {
			return err
		}
	}
	for _, o := range c.objects {
		if err := sw.Object(o.Kind, o.Name, o.Parties); err != nil {
			return err
		}
	}
	return nil
}

// RegisterThread allocates a ThreadID and its event buffer. creator is
// the creating thread (NoThread for the root thread).
func (c *Collector) RegisterThread(name string, creator ThreadID) *ThreadBuffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := ThreadID(len(c.threads))
	if name == "" {
		name = fmt.Sprintf("thread-%d", id)
	}
	c.threads = append(c.threads, ThreadInfo{ID: id, Name: name, Creator: creator})
	buf := &ThreadBuffer{collector: c, thread: id}
	c.buffers = append(c.buffers, buf)
	if sink := c.sink.Load(); sink != nil {
		sink.Thread(name, creator)
	}
	return buf
}

// RegisterObject allocates an ObjID for a synchronization object.
func (c *Collector) RegisterObject(kind ObjKind, name string, parties int) ObjID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := ObjID(len(c.objects))
	if name == "" {
		name = fmt.Sprintf("%s-%d", kind, id)
	}
	c.objects = append(c.objects, ObjectInfo{ID: id, Kind: kind, Name: name, Parties: parties})
	if sink := c.sink.Load(); sink != nil {
		sink.Object(kind, name, parties)
	}
	return id
}

// NumThreads returns the number of registered threads.
func (c *Collector) NumThreads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.threads)
}

// Finish merges all per-thread buffers into a Trace in canonical
// (T, Seq) order via a k-way merge — the buffers are already ordered,
// so no global sort is needed. The collector remains usable; Finish
// may be called repeatedly to snapshot progress.
func (c *Collector) Finish() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, b := range c.buffers {
		total += b.len()
	}
	// Snapshot every buffer into one flat scratch slice and merge the
	// per-thread runs. (If a buffer grows between the count above and
	// its snapshot, append reallocates; earlier runs keep pointing at
	// the old backing, which is correct — they are copies either way.)
	flat := make([]Event, 0, total)
	runs := make([][]Event, 0, len(c.buffers))
	for _, b := range c.buffers {
		start := len(flat)
		flat = b.appendEvents(flat)
		runs = append(runs, flat[start:len(flat):len(flat)])
	}
	events := MergeSorted(runs)
	tr := &Trace{
		Events:  events,
		Objects: append([]ObjectInfo(nil), c.objects...),
		Threads: append([]ThreadInfo(nil), c.threads...),
		Meta:    make(map[string]string, len(c.meta)),
	}
	for k, v := range c.meta {
		tr.Meta[k] = v
	}
	return tr
}

// A ThreadBuffer stores its events in chunks: the first holds
// minChunk events, each next one doubles, up to maxChunk. Starting
// small keeps the many short-lived threads of a live recording cheap.
const (
	minChunk = 16
	maxChunk = 4096
)

// ThreadBuffer is the per-thread event sink. It must only be used from
// the owning thread (the backends guarantee this); the sequence number
// comes from one shared atomic.
//
// Events are never moved once stored: a full chunk is followed by a new
// one instead of being regrown. A live backend emits from inside the
// critical sections it records, so a regrow-and-copy there would be
// measured as hold time — one such copy of a 23k-event slice once
// stretched a hold whose median is 150 ns to 2.35 ms.
type ThreadBuffer struct {
	collector *Collector
	thread    ThreadID

	mu     sync.Mutex // guards the fields below against concurrent Finish snapshots
	chunks [][]Event  // chunks[:used] hold the events, all but the last of them full
	used   int        // chunks[used:] are empty spares kept after a spill
	n      int        // events stored
}

// Thread returns the owning thread's ID.
func (b *ThreadBuffer) Thread() ThreadID { return b.thread }

// Emit appends an event, stamping thread and sequence number, and
// forwards it to the streaming sink if one is attached. With a spill
// sink attached, a buffer reaching the threshold is flushed and
// cleared while still under the buffer lock, so Finish snapshots never
// see half-spilled state.
func (b *ThreadBuffer) Emit(t Time, kind EventKind, obj ObjID, arg int64) {
	seq := b.collector.seq.Add(1)
	e := Event{T: t, Seq: seq, Thread: b.thread, Kind: kind, Obj: obj, Arg: arg}
	b.mu.Lock()
	b.push(e)
	if cfg := b.collector.spill.Load(); cfg != nil && b.n >= cfg.threshold {
		b.spillLocked(cfg.sink) // errors latch in the sink
	}
	b.mu.Unlock()
	if sink := b.collector.sink.Load(); sink != nil {
		sink.Event(e)
	}
}

// push stores e, starting (or reusing) the next chunk when the last
// one is full.
func (b *ThreadBuffer) push(e Event) {
	if b.used == 0 || len(b.chunks[b.used-1]) == cap(b.chunks[b.used-1]) {
		if b.used == len(b.chunks) {
			size := minChunk
			if b.used > 0 {
				size = 2 * cap(b.chunks[b.used-1])
			}
			if size > maxChunk {
				size = maxChunk
			}
			b.chunks = append(b.chunks, make([]Event, 0, size))
		}
		b.used++
	}
	tail := &b.chunks[b.used-1]
	*tail = append(*tail, e)
	b.n++
}

// spillLocked hands the stored events to sink, one run per chunk in
// order, and empties the buffer, keeping its chunks for reuse. It
// returns the first error the sink reported.
func (b *ThreadBuffer) spillLocked(sink SpillSink) error {
	var first error
	for i := 0; i < b.used; i++ {
		if err := sink.SpillRun(b.thread, b.chunks[i]); err != nil && first == nil {
			first = err
		}
		b.chunks[i] = b.chunks[i][:0]
	}
	b.used, b.n = 0, 0
	return first
}

func (b *ThreadBuffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// appendEvents appends a snapshot of the buffer to dst.
func (b *ThreadBuffer) appendEvents(dst []Event) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.chunks[:b.used] {
		dst = append(dst, c...)
	}
	return dst
}
