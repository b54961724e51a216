package core_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// Metamorphic invariants: transformations of a trace whose effect on
// the analysis is known without computing it.

// metamorphicTraces are small traces covering locks, barriers, conds,
// channels and joins.
func metamorphicTraces(t *testing.T) map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for _, c := range []struct {
		name    string
		threads int
	}{{"micro", 4}, {"radiosity", 6}, {"waternsq", 4}, {"pipeline", 4}, {"fanin", 4}, {"lostsignal", 0}, {"tsp", 5}} {
		out[c.name] = simTrace(t, c.name, c.threads, 1)
	}
	return out
}

func mustAnalyze(t *testing.T, tr *trace.Trace) *core.Analysis {
	t.Helper()
	an, err := core.Analyze(tr, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return an
}

// cloneTrace copies tr's tables and events.
func cloneTrace(tr *trace.Trace) *trace.Trace {
	c := *tr
	c.Threads = slices.Clone(tr.Threads)
	c.Objects = slices.Clone(tr.Objects)
	c.Events = slices.Clone(tr.Events)
	return &c
}

// TestMetamorphicTimeScaling: multiplying every timestamp by k
// multiplies the critical path's length by k and leaves every
// percentage unchanged.
func TestMetamorphicTimeScaling(t *testing.T) {
	for name, tr := range metamorphicTraces(t) {
		base := mustAnalyze(t, tr)
		for _, k := range []trace.Time{2, 3, 1000} {
			scaled := cloneTrace(tr)
			for i := range scaled.Events {
				scaled.Events[i].T *= k
			}
			an := mustAnalyze(t, scaled)
			label := fmt.Sprintf("%s k=%d", name, k)
			if an.CP.Length != k*base.CP.Length || an.CP.ExecTime != k*base.CP.ExecTime ||
				an.CP.WaitTime != k*base.CP.WaitTime || an.CP.WallTime != k*base.CP.WallTime {
				t.Errorf("%s: CP length %d, want %d", label, an.CP.Length, k*base.CP.Length)
			}
			if len(an.CP.Pieces) != len(base.CP.Pieces) || an.CP.Jumps != base.CP.Jumps {
				t.Errorf("%s: path shape changed: %d pieces/%d jumps, want %d/%d",
					label, len(an.CP.Pieces), an.CP.Jumps, len(base.CP.Pieces), base.CP.Jumps)
			}
			for i, want := range base.Locks {
				got := an.Locks[i]
				if got.Lock != want.Lock || got.HoldOnCP != k*want.HoldOnCP ||
					got.CPTimePct != want.CPTimePct || got.ContProbOnCP != want.ContProbOnCP ||
					got.InvocationsOnCP != want.InvocationsOnCP || got.WaitTimePct != want.WaitTimePct ||
					got.AvgHoldTimePct != want.AvgHoldTimePct {
					t.Errorf("%s: lock %s changed:\n got %+v\nwant %+v (times ×%d)", label, want.Name, got, want, k)
				}
			}
		}
	}
}

// TestMetamorphicRelabelling: renumbering threads and objects only
// permutes the output.
func TestMetamorphicRelabelling(t *testing.T) {
	for name, tr := range metamorphicTraces(t) {
		base := mustAnalyze(t, tr)
		nT, nO := len(tr.Threads), len(tr.Objects)
		// Reverse both id spaces (the root keeps thread id 0, which
		// trace.Validate requires).
		th := func(id trace.ThreadID) trace.ThreadID {
			if id <= 0 || int(id) >= nT {
				return id
			}
			return trace.ThreadID(nT) - id
		}
		ob := func(id trace.ObjID) trace.ObjID {
			if id < 0 || int(id) >= nO {
				return id
			}
			return trace.ObjID(nO-1) - id
		}
		rl := cloneTrace(tr)
		for _, ti := range tr.Threads {
			ti.ID, ti.Creator = th(ti.ID), th(ti.Creator)
			rl.Threads[ti.ID] = ti
		}
		for _, oi := range tr.Objects {
			oi.ID = ob(oi.ID)
			rl.Objects[oi.ID] = oi
		}
		for i := range rl.Events {
			e := &rl.Events[i]
			e.Thread, e.Obj = th(e.Thread), ob(e.Obj)
			switch e.Kind {
			case trace.EvThreadStart, trace.EvThreadCreate, trace.EvJoinBegin, trace.EvJoinEnd:
				e.Arg = int64(th(trace.ThreadID(e.Arg)))
			case trace.EvCondWaitBegin, trace.EvCondWaitEnd:
				e.Arg = int64(ob(trace.ObjID(e.Arg)))
			}
		}
		an := mustAnalyze(t, rl)

		want := base.CP
		want.LastThread = th(want.LastThread)
		want.Pieces = slices.Clone(want.Pieces)
		for i := range want.Pieces {
			want.Pieces[i].Thread = th(want.Pieces[i].Thread)
		}
		want.JumpLog = slices.Clone(want.JumpLog)
		for i := range want.JumpLog {
			j := &want.JumpLog[i]
			j.From, j.To, j.Obj = th(j.From), th(j.To), ob(j.Obj)
		}
		if !reflect.DeepEqual(an.CP, want) {
			t.Errorf("%s: relabelled critical path is not the permuted original", name)
		}
		for i, l := range base.Locks {
			l.Lock = ob(l.Lock)
			// The per-thread averages sum over threads in id order, so
			// relabelling may move their last bits; they must agree to
			// rounding, and every other field exactly.
			got := an.Locks[i]
			for _, f := range []struct{ got, want *float64 }{
				{&got.WaitTimePct, &l.WaitTimePct}, {&got.AvgHoldTimePct, &l.AvgHoldTimePct}, {&got.SizeIncrease, &l.SizeIncrease},
			} {
				if math.Abs(*f.got-*f.want) > 1e-12*math.Abs(*f.want) {
					t.Errorf("%s: lock %s: per-thread average %v, want %v", name, l.Name, *f.got, *f.want)
				}
				*f.got = *f.want
			}
			if got != l {
				t.Errorf("%s: lock row %d:\n got %+v\nwant %+v", name, i, got, l)
			}
		}
		for i, c := range base.Chans {
			c.Chan = ob(c.Chan)
			if an.Chans[i] != c {
				t.Errorf("%s: chan row %d:\n got %+v\nwant %+v", name, i, an.Chans[i], c)
			}
		}
		for tid, ts := range base.Threads {
			ts.Thread = th(ts.Thread)
			if an.Threads[ts.Thread] != ts {
				t.Errorf("%s: thread %d:\n got %+v\nwant %+v", name, tid, an.Threads[ts.Thread], ts)
			}
		}
		if an.Totals != base.Totals {
			t.Errorf("%s: totals changed", name)
		}
	}
}

// TestMetamorphicPrivateSection: inserting an uncontended critical
// section on a fresh private lock into an executed stretch of a thread
// that lies off the critical path changes no critical-path metric.
func TestMetamorphicPrivateSection(t *testing.T) {
	// Kinds after which a thread is running, and kinds it reaches by
	// running (never an unblock event), so [a, b] is executed code.
	runningAfter := map[trace.EventKind]bool{
		trace.EvThreadStart: true, trace.EvThreadCreate: true, trace.EvJoinEnd: true,
		trace.EvLockObtain: true, trace.EvLockRelease: true, trace.EvBarrierDepart: true,
		trace.EvCondWaitEnd: true, trace.EvCondSignal: true, trace.EvCondBroadcast: true,
		trace.EvChanSend: true, trace.EvChanRecv: true, trace.EvChanClose: true,
	}
	reachedRunning := map[trace.EventKind]bool{
		trace.EvThreadExit: true, trace.EvThreadCreate: true, trace.EvJoinBegin: true,
		trace.EvLockAcquire: true, trace.EvLockRelease: true, trace.EvBarrierArrive: true,
		trace.EvCondWaitBegin: true, trace.EvCondSignal: true, trace.EvCondBroadcast: true,
		trace.EvChanSendBegin: true, trace.EvChanRecvBegin: true, trace.EvChanClose: true,
	}
	inserted := 0
	for name, tr := range metamorphicTraces(t) {
		base := mustAnalyze(t, tr)
		onPath := func(thread trace.ThreadID, from, to trace.Time) bool {
			for _, p := range base.CP.Pieces {
				if p.Thread == thread && p.From < to && from < p.To {
					return true
				}
			}
			return false
		}
		// The first off-path executed stretch long enough to hold a
		// section strictly inside it.
		var a, b trace.Event
		found := false
		last := map[trace.ThreadID]trace.Event{}
		for _, e := range tr.Events {
			p, ok := last[e.Thread]
			last[e.Thread] = e
			if ok && runningAfter[p.Kind] && reachedRunning[e.Kind] && e.T-p.T >= 4 && !onPath(e.Thread, p.T, e.T) {
				a, b, found = p, e, true
				break
			}
		}
		if !found {
			continue
		}
		inserted++
		priv := trace.ObjID(len(tr.Objects))
		t1, t2 := a.T+1, b.T-1
		cs := []trace.Event{
			{T: t1, Thread: a.Thread, Kind: trace.EvLockAcquire, Obj: priv},
			{T: t1, Thread: a.Thread, Kind: trace.EvLockObtain, Obj: priv},
			{T: t2, Thread: a.Thread, Kind: trace.EvLockRelease, Obj: priv},
		}
		mod := cloneTrace(tr)
		mod.Objects = append(mod.Objects, trace.ObjectInfo{ID: priv, Kind: trace.ObjMutex, Name: "private"})
		mod.Events = nil
		for _, e := range tr.Events {
			for len(cs) > 0 && cs[0].T < e.T {
				mod.Events = append(mod.Events, cs[0])
				cs = cs[1:]
			}
			mod.Events = append(mod.Events, e)
		}
		for i := range mod.Events {
			mod.Events[i].Seq = uint64(i + 1)
		}
		an := mustAnalyze(t, mod)
		if !reflect.DeepEqual(an.CP, base.CP) {
			t.Errorf("%s: private section at [%d, %d] on thread %d moved the critical path", name, t1, t2, a.Thread)
		}
		for _, want := range base.Locks {
			got := an.Lock(want.Name)
			if got.Critical != want.Critical || got.HoldOnCP != want.HoldOnCP || got.CPTimePct != want.CPTimePct ||
				got.InvocationsOnCP != want.InvocationsOnCP || got.ContendedOnCP != want.ContendedOnCP ||
				got.ContProbOnCP != want.ContProbOnCP || got.InvIncrease != want.InvIncrease {
				t.Errorf("%s: lock %s changed:\n got %+v\nwant %+v", name, want.Name, *got, want)
			}
		}
		if p := an.Lock("private"); p == nil || p.Critical || p.TotalInvocations != 1 || p.TotalContended != 0 {
			t.Errorf("%s: private lock = %+v, want one uncontended off-path invocation", name, p)
		}
	}
	if inserted < 4 {
		t.Fatalf("only %d traces had an off-path executed stretch", inserted)
	}
}
