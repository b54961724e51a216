package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"critlock/internal/trace"
)

// TestSpillerOutputMatchesFlatRuns spills a collector's chunked
// buffers at a threshold that aligns with no chunk size and requires
// the segment directory to equal, byte for byte, the one a Spiller
// writes when each threshold crossing arrives as one contiguous run.
func TestSpillerOutputMatchesFlatRuns(t *testing.T) {
	const threads, each, threshold = 3, 9000, 1000
	opts := Options{SegmentEvents: 700}
	register := func(c *trace.Collector) []*trace.ThreadBuffer {
		c.SetMeta("workload", "spill-equivalence")
		c.RegisterObject(trace.ObjMutex, "m", 0)
		bufs := make([]*trace.ThreadBuffer, threads)
		for i := range bufs {
			bufs[i] = c.RegisterThread("", trace.NoThread)
		}
		return bufs
	}

	gotDir := filepath.Join(t.TempDir(), "chunked")
	sp, err := NewSpiller(gotDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	col.SetSpill(sp, threshold)
	bufs := register(col)

	wantDir := filepath.Join(t.TempDir(), "flat")
	ref, err := NewSpiller(wantDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	refCol := trace.NewCollector()
	register(refCol)
	flat := make([][]trace.Event, threads)
	var seq uint64
	for i := 0; i < each; i++ {
		for th, b := range bufs {
			tm, arg := trace.Time(i), int64(i*threads+th)
			b.Emit(tm, trace.EvLockAcquire, 0, arg)
			seq++
			flat[th] = append(flat[th], trace.Event{T: tm, Seq: seq, Thread: trace.ThreadID(th), Kind: trace.EvLockAcquire, Obj: 0, Arg: arg})
			if len(flat[th]) >= threshold {
				ref.SpillRun(trace.ThreadID(th), flat[th])
				flat[th] = flat[th][:0]
			}
		}
	}
	for th, evs := range flat {
		if len(evs) > 0 {
			ref.SpillRun(trace.ThreadID(th), evs)
		}
	}
	if _, err := sp.Finish(col); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Finish(refCol); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadDir(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) < 2 {
		t.Fatalf("chunked spill wrote %d files, flat runs %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name() != w.Name() {
			t.Fatalf("file %d: %s, want %s", i, got[i].Name(), w.Name())
		}
		a, err := os.ReadFile(filepath.Join(gotDir, w.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(wantDir, w.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between chunked and flat spills", w.Name())
		}
	}
}
