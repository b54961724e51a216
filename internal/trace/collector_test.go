package trace

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestCollectorBasics(t *testing.T) {
	c := NewCollector()
	c.SetMeta("workload", "test")
	main := c.RegisterThread("main", NoThread)
	if main.Thread() != 0 {
		t.Fatalf("first thread id = %d, want 0", main.Thread())
	}
	w := c.RegisterThread("", main.Thread())
	if w.Thread() != 1 {
		t.Fatalf("second thread id = %d, want 1", w.Thread())
	}
	m := c.RegisterObject(ObjMutex, "L1", 0)
	bar := c.RegisterObject(ObjBarrier, "", 4)

	main.Emit(0, EvThreadStart, NoObj, int64(NoThread))
	main.Emit(10, EvLockAcquire, m, 0)
	main.Emit(10, EvLockObtain, m, 0)
	main.Emit(20, EvLockRelease, m, 0)
	main.Emit(30, EvThreadExit, NoObj, 0)
	w.Emit(5, EvThreadStart, NoObj, 0)
	w.Emit(25, EvThreadExit, NoObj, 0)

	tr := c.Finish()
	if len(tr.Events) != 7 {
		t.Fatalf("got %d events, want 7", len(tr.Events))
	}
	// Events must be globally time-sorted after merging buffers.
	for i := 1; i < len(tr.Events); i++ {
		a, b := tr.Events[i-1], tr.Events[i]
		if b.T < a.T || (b.T == a.T && b.Seq <= a.Seq) {
			t.Errorf("events %d,%d out of order: %v then %v", i-1, i, a, b)
		}
	}
	if tr.Meta["workload"] != "test" {
		t.Errorf("meta not propagated: %v", tr.Meta)
	}
	if tr.Objects[m].Name != "L1" {
		t.Errorf("object name = %q", tr.Objects[m].Name)
	}
	if tr.Objects[bar].Parties != 4 {
		t.Errorf("barrier parties = %d, want 4", tr.Objects[bar].Parties)
	}
	if tr.Objects[bar].Name == "" {
		t.Error("auto-generated object name empty")
	}
	if tr.Threads[1].Name == "" {
		t.Error("auto-generated thread name empty")
	}
	if c.NumThreads() != 2 {
		t.Errorf("NumThreads = %d, want 2", c.NumThreads())
	}
	if err := Validate(tr); err != nil {
		t.Errorf("collector output invalid: %v", err)
	}
}

// TestCollectorConcurrent exercises concurrent emission from many
// goroutines (the live backend's usage pattern) under the race
// detector.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	const workers = 8
	const eventsEach = 200
	var wg sync.WaitGroup
	bufs := make([]*ThreadBuffer, workers)
	for i := range bufs {
		bufs[i] = c.RegisterThread("", NoThread)
	}
	m := c.RegisterObject(ObjMutex, "shared", 0)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(buf *ThreadBuffer) {
			defer wg.Done()
			for j := 0; j < eventsEach; j++ {
				buf.Emit(Time(j), EvLockAcquire, m, 0)
			}
		}(bufs[i])
	}
	wg.Wait()
	tr := c.Finish()
	if got := len(tr.Events); got != workers*eventsEach {
		t.Fatalf("got %d events, want %d", got, workers*eventsEach)
	}
	// Sequence numbers must be unique.
	seen := make(map[uint64]bool, len(tr.Events))
	for _, e := range tr.Events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestCollectorFinishSnapshot(t *testing.T) {
	c := NewCollector()
	b := c.RegisterThread("main", NoThread)
	b.Emit(0, EvThreadStart, NoObj, 0)
	tr1 := c.Finish()
	b.Emit(1, EvThreadExit, NoObj, 0)
	tr2 := c.Finish()
	if len(tr1.Events) != 1 || len(tr2.Events) != 2 {
		t.Errorf("snapshots: %d then %d events, want 1 then 2", len(tr1.Events), len(tr2.Events))
	}
}

// flatBuffer is the reference for ThreadBuffer: one slice grown by
// append and spilled whole at the threshold, the layout the chunked
// buffer replaced.
type flatBuffer struct {
	thread ThreadID
	events []Event
}

func (f *flatBuffer) emit(e Event, sink SpillSink, threshold int) {
	f.events = append(f.events, e)
	if sink != nil && len(f.events) >= threshold {
		sink.SpillRun(f.thread, f.events)
		f.events = f.events[:0]
	}
}

func (f *flatBuffer) drain(sink SpillSink) {
	if len(f.events) > 0 {
		sink.SpillRun(f.thread, f.events)
		f.events = f.events[:0]
	}
}

// logSink records every spilled event in delivery order.
type logSink struct{ log []Event }

func (s *logSink) SpillRun(_ ThreadID, events []Event) error {
	s.log = append(s.log, events...)
	return nil
}

// chunkBoundaryCounts are per-thread event counts on both sides of
// every chunk size and of every cumulative chunk capacity.
func chunkBoundaryCounts() []int {
	var marks []int
	total := 0
	for size := minChunk; total < 3*maxChunk; {
		total += size
		marks = append(marks, size, total)
		if size < maxChunk {
			size *= 2
		}
	}
	seen := map[int]bool{}
	var counts []int
	for _, m := range marks {
		for _, n := range []int{m - 1, m, m + 1} {
			if !seen[n] {
				seen[n] = true
				counts = append(counts, n)
			}
		}
	}
	sort.Ints(counts)
	return counts
}

// TestChunkedBufferMatchesFlatReference drives the collector and the
// flat reference with the same emissions — two interleaved threads,
// counts straddling every chunk boundary, spill thresholds that do not
// align with chunk sizes — and requires Finish, the spilled stream and
// DrainSpill to agree event for event, every field included.
func TestChunkedBufferMatchesFlatReference(t *testing.T) {
	for _, n := range chunkBoundaryCounts() {
		for _, threshold := range []int{0, 1, 7, 1000, 4097, 5000} {
			if threshold == 1 && n > maxChunk+1 {
				continue // one run per event: covered at smaller counts
			}
			c := NewCollector()
			got := &logSink{}
			if threshold > 0 {
				c.SetSpill(got, threshold)
			}
			bufs := []*ThreadBuffer{c.RegisterThread("a", NoThread), c.RegisterThread("b", NoThread)}
			want := &logSink{}
			var wantSink SpillSink
			if threshold > 0 {
				wantSink = want
			}
			ref := []*flatBuffer{{thread: 0}, {thread: 1}}
			var seq uint64
			for i := 0; i < n; i++ {
				for th, b := range bufs {
					tm, kind, arg := Time(i/3), EvThreadStart+EventKind(i%5), int64(i*7+th)
					b.Emit(tm, kind, ObjID(th), arg)
					seq++
					ref[th].emit(Event{T: tm, Seq: seq, Thread: ThreadID(th), Kind: kind, Obj: ObjID(th), Arg: arg}, wantSink, threshold)
				}
			}
			name := fmt.Sprintf("n=%d threshold=%d", n, threshold)
			refFinish := MergeSorted([][]Event{ref[0].events, ref[1].events})
			if !slices.Equal(c.Finish().Events, refFinish) {
				t.Fatalf("%s: Finish differs from the flat reference", name)
			}
			if !slices.Equal(got.log, want.log) {
				t.Fatalf("%s: spilled stream differs (%d vs %d events)", name, len(got.log), len(want.log))
			}
			if threshold == 0 {
				continue
			}
			if err := c.DrainSpill(); err != nil {
				t.Fatal(err)
			}
			ref[0].drain(want)
			ref[1].drain(want)
			if !slices.Equal(got.log, want.log) {
				t.Fatalf("%s: DrainSpill stream differs", name)
			}
			if left := len(c.Finish().Events); left != 0 {
				t.Fatalf("%s: %d events left after DrainSpill", name, left)
			}
		}
	}
}

// TestFinishRacesEmit snapshots the collector while four threads emit.
// Every snapshot must hold, per thread, exactly a prefix of what that
// thread emitted.
func TestFinishRacesEmit(t *testing.T) {
	const workers, each = 4, 20000
	c := NewCollector()
	bufs := make([]*ThreadBuffer, workers)
	for i := range bufs {
		bufs[i] = c.RegisterThread("", NoThread)
	}
	var wg sync.WaitGroup
	for _, b := range bufs {
		wg.Add(1)
		go func(b *ThreadBuffer) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Emit(Time(i), EvLockAcquire, 0, int64(i))
			}
		}(b)
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	check := func(tr *Trace) {
		next := make([]int64, workers)
		for _, e := range tr.Events {
			if e.Arg != next[e.Thread] {
				t.Fatalf("thread %d: event %d where %d was due", e.Thread, e.Arg, next[e.Thread])
			}
			next[e.Thread]++
		}
	}
	for snapshots := 0; ; snapshots++ {
		select {
		case <-stop:
			tr := c.Finish()
			check(tr)
			if len(tr.Events) != workers*each {
				t.Fatalf("final snapshot has %d events, want %d", len(tr.Events), workers*each)
			}
			t.Logf("%d snapshots taken during emission", snapshots)
			return
		default:
			check(c.Finish())
		}
	}
}

// TestEmitNeverMovesStoredEvents pins the property the chunked buffer
// exists for: a live backend emits from inside the critical sections
// it records, so an emit must never copy the events already stored.
func TestEmitNeverMovesStoredEvents(t *testing.T) {
	const n = 100000
	c := NewCollector()
	b := c.RegisterThread("main", NoThread)
	addrs := map[int]*Event{}
	for i := 0; i < n; i++ {
		b.Emit(Time(i), EvLockAcquire, 0, int64(i))
		if i%997 == 0 {
			tail := b.chunks[b.used-1]
			addrs[i] = &tail[len(tail)-1]
		}
	}
	i, capacity := 0, 0
	for _, chunk := range b.chunks[:b.used] {
		capacity += cap(chunk)
		for j := range chunk {
			if want, ok := addrs[i]; ok && want != &chunk[j] {
				t.Fatalf("event %d moved after it was stored", i)
			}
			i++
		}
	}
	if addrs[0].Arg != 0 || addrs[0] != &b.chunks[0][0] {
		t.Fatal("first event moved")
	}
	if i != n {
		t.Fatalf("buffer holds %d events, want %d", i, n)
	}
	if capacity > n+maxChunk {
		t.Errorf("buffer capacity %d for %d events, want at most one spare chunk", capacity, n)
	}
}
