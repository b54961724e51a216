package main

import (
	"fmt"

	"critlock/internal/harness"
	"critlock/internal/trace"
)

// mixSize sizes the stream-mix harness program. Events grow linearly
// with Workers × Rounds (about 40 events per worker round).
type mixSize struct {
	Workers int
	Rounds  int
}

// Object names the stream-mix checks rely on.
const (
	mixHotLock = "mix.hot"
	mixLostCV  = "mix.ls.cv"
)

// buildMix is the stream-mix program, written against the harness API
// so it runs on the simulator. Each worker round mixes:
//
//   - a condvar task queue fed by one producer (every worker parks on
//     the queue before the first task, so no task signal can be lost);
//   - a short-section convoy on mix.hot, saturated so the critical path
//     zigzags between workers through it;
//   - an RW-lock read (with a rare writer);
//   - a barrier phase;
//   - a buffered and, every other round, a rendezvous channel hand-off
//     with mix.xfer held across the send, so the receiving drain
//     thread inherits the hold.
//
// Beside them run one planted cross-thread A↔B inversion (the
// deadlockprone pattern) and one planted lost signal on mix.ls.cv.
func buildMix(rt harness.Runtime, sz mixSize) func(harness.Proc) {
	hot := rt.NewMutex(mixHotLock)
	cfg := rt.NewMutex("mix.cfg")
	qmu := rt.NewMutex("mix.q.mu")
	qcv := rt.NewCond("mix.q.cv")
	phase := rt.NewBarrier("mix.phase", sz.Workers)
	xfer := rt.NewMutex("mix.xfer")
	tally := rt.NewMutex("mix.tally")
	buf := rt.NewChan("mix.buf", 4)
	rv := rt.NewChan("mix.rv", 0)
	lockA := rt.NewMutex("mix.A")
	lockB := rt.NewMutex("mix.B")
	gate := rt.NewChan("mix.gate", 1)
	lsMu := rt.NewMutex("mix.ls.mu")
	lsCV := rt.NewCond(mixLostCV)

	tasks := sz.Workers * sz.Rounds
	rendezvous := 0
	for w := 0; w < sz.Workers; w++ {
		for r := 0; r < sz.Rounds; r++ {
			if (w+r)%2 == 0 {
				rendezvous++
			}
		}
	}

	return func(main harness.Proc) {
		queued := 0 // tasks waiting in the queue; guarded by mix.q.mu
		var kids []harness.Thread
		spawn := func(name string, fn func(harness.Proc)) {
			kids = append(kids, main.Go(name, fn))
		}

		spawn("producer", func(q harness.Proc) {
			q.Compute(10_000) // every worker parks on the queue first
			for i := 0; i < tasks; i++ {
				q.Compute(jitter(q, 120))
				q.Lock(qmu)
				queued++
				q.Signal(qcv)
				q.Unlock(qmu)
			}
		})
		drain := func(ch harness.Chan, n int) func(harness.Proc) {
			return func(q harness.Proc) {
				for i := 0; i < n; i++ {
					q.Recv(ch)
					q.Lock(tally)
					q.Compute(15)
					q.Unlock(tally)
				}
			}
		}
		spawn("drain-buf", drain(buf, tasks))
		spawn("drain-rv", drain(rv, rendezvous))

		for w := 0; w < sz.Workers; w++ {
			w := w
			spawn(fmt.Sprintf("worker-%d", w), func(q harness.Proc) {
				for r := 0; r < sz.Rounds; r++ {
					q.Lock(qmu)
					for queued == 0 {
						q.Wait(qcv, qmu)
					}
					queued--
					q.Unlock(qmu)

					for k := 0; k < 4; k++ {
						q.Compute(jitter(q, 500))
						q.Lock(hot)
						q.Compute(jitter(q, 100))
						q.Unlock(hot)
					}

					if w == 0 && r%8 == 0 {
						q.Lock(cfg)
						q.Compute(40)
						q.Unlock(cfg)
					} else {
						q.RLock(cfg)
						q.Compute(30)
						q.RUnlock(cfg)
					}

					q.BarrierWait(phase)

					q.Lock(xfer)
					//lint:ignore blockheld the benchmark exercises holds inherited across a channel hand-off
					q.Send(buf)
					q.Compute(20)
					q.Unlock(xfer)
					if (w+r)%2 == 0 {
						q.Lock(xfer)
						//lint:ignore blockheld the benchmark exercises holds inherited across a rendezvous
						q.Send(rv)
						q.Unlock(xfer)
					}
				}
			})
		}

		// Planted cross-thread inversion: g1 carries mix.A across the
		// gate hand-off, g2 nests mix.B under the inherited hold and
		// then waits for mix.A (edges A→B and B→A, one feasible cycle).
		spawn("g1", func(q harness.Proc) {
			q.Lock(lockA)
			q.Compute(5_000)
			//lint:ignore blockheld planted: the hand-off must carry mix.A across the send
			q.Send(gate)
			q.Compute(20_000) // long enough for g2 to take mix.B under the inherited hold
			q.Unlock(lockA)
		})
		spawn("g2", func(q harness.Proc) {
			q.Recv(gate)
			q.Lock(lockB)
			q.Compute(5_000)
			q.Lock(lockA)
			q.Compute(5_000)
			q.Unlock(lockA)
			q.Unlock(lockB)
		})

		// Planted lost signal: the second signal on mix.ls.cv comes
		// after its only waiter has exited.
		waiter := main.Go("ls-waiter", func(q harness.Proc) {
			q.Lock(lsMu)
			//lint:ignore waitloop planted: the one-shot wait makes the second signal provably lost
			q.Wait(lsCV, lsMu)
			q.Unlock(lsMu)
		})
		main.Compute(10_000)
		main.Lock(lsMu)
		main.Signal(lsCV)
		main.Unlock(lsMu)
		main.Join(waiter)
		main.Lock(lsMu)
		main.Signal(lsCV)
		main.Unlock(lsMu)

		for _, k := range kids {
			main.Join(k)
		}
	}
}

// jitter returns a duration uniform in [d/2, 3d/2) from the thread's
// seeded PRNG.
func jitter(q harness.Proc, d trace.Time) trace.Time {
	return d/2 + trace.Time(q.Rand().Int63n(int64(d)))
}
