package clrt

import "testing"

// benchBatch bounds a benchmark's recording: every benchBatch
// iterations the recording is closed and a fresh one started with the
// timer stopped, so memory stays flat at any -benchtime while the
// per-op cost still includes the buffer growth a real recording pays.
const benchBatch = 1 << 10

// benchOp measures op inside a live recording. newOp runs at the start
// of every batch (timer stopped) and returns the operation to time;
// objects it creates belong to that batch's recording.
func benchOp(b *testing.B, newOp func() func()) {
	b.ReportAllocs()
	var op func()
	begin := func() {
		resetForTest()
		cur() // bootstrap the root on the benchmark goroutine
		op = newOp()
	}
	end := func() {
		st.mu.Lock()
		rt, root := st.rt, st.root
		st.finished = true
		st.mu.Unlock()
		if _, _, err := rt.End(root); err != nil {
			b.Fatal(err)
		}
		resetForTest()
	}
	b.StopTimer()
	begin()
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%benchBatch == 0 {
			b.StopTimer()
			end()
			begin()
			b.StartTimer()
		}
		op()
	}
	b.StopTimer()
	end()
}

func BenchmarkMutexLockUnlock(b *testing.B) {
	benchOp(b, func() func() {
		mu := new(Mutex)
		mu.SetName("bench.mu")
		return func() {
			mu.Lock()
			mu.Unlock()
		}
	})
}

func BenchmarkRWMutexRLockRUnlock(b *testing.B) {
	benchOp(b, func() func() {
		mu := new(RWMutex)
		mu.SetName("bench.rw")
		return func() {
			mu.RLock()
			mu.RUnlock()
		}
	})
}

func BenchmarkChanSendRecv(b *testing.B) {
	benchOp(b, func() func() {
		ch := MakeChan[int]("bench.ch", 1)
		return func() {
			ch.Send(1)
			ch.Recv()
		}
	})
}

func BenchmarkWaitGroupAddDoneWait(b *testing.B) {
	benchOp(b, func() func() {
		wg := new(WaitGroup)
		wg.SetName("bench.wg")
		return func() {
			wg.Add(1)
			wg.Done()
			wg.Wait()
		}
	})
}

// BenchmarkGoSpawnJoin spawns a traced thread and waits for its body
// on an untraced channel, so only the spawn, start and exit are timed.
func BenchmarkGoSpawnJoin(b *testing.B) {
	benchOp(b, func() func() {
		done := make(chan struct{})
		return func() {
			Go("bench.child", func() { done <- struct{}{} })
			<-done
		}
	})
}

// goidSink keeps the compiler from discarding the id reads.
var goidSink int64

func BenchmarkGoid(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		if goidOffset < 0 {
			b.Skip("no goid fast path on this platform")
		}
		for i := 0; i < b.N; i++ {
			goidSink = goid()
		}
	})
	b.Run("stack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			goidSink = stackGoid()
		}
	})
}
