// Package naive is a deliberately naive reference implementation of
// critical lock analysis, the test oracle for internal/core. It is
// written straight from the definitions in PAPER.md — waker resolution
// (§IV.B of the paper, "Core algorithm notes" in PAPER.md), the
// backward walk of Fig. 2 and the TYPE 1 / TYPE 2 metrics of Table 2 —
// plus the channel rule of DESIGN.md §11, so it can be reviewed line
// by line against them.
//
// It favours the obvious over the fast: every dependency is found by a
// linear search over the event slice, so it is quadratic and meant for
// test-sized traces only. It is defined on traces that pass
// trace.Validate. Only tests import it.
package naive

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// Analyze runs the reference analysis. clipHold selects the CP Time
// accounting: the part of each hot critical section lying on the
// critical path (true), or its whole hold time (false).
func Analyze(tr *trace.Trace, clipHold bool) (*core.Analysis, error) {
	if len(tr.Events) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	r := &ref{tr: tr, ev: tr.Events}
	cp, err := r.criticalPath()
	if err != nil {
		return nil, err
	}
	an := &core.Analysis{Trace: tr, CP: *cp}
	r.metrics(an, clipHold)
	return an, nil
}

type ref struct {
	tr *trace.Trace
	ev []trace.Event
}

// prev returns the event before i on i's thread, or -1.
func (r *ref) prev(i int) int {
	for j := i - 1; j >= 0; j-- {
		if r.ev[j].Thread == r.ev[i].Thread {
			return j
		}
	}
	return -1
}

// count returns how many events before i satisfy match.
func (r *ref) count(i int, match func(trace.Event) bool) int {
	n := 0
	for j := 0; j < i; j++ {
		if match(r.ev[j]) {
			n++
		}
	}
	return n
}

// all returns the indices of the events that satisfy match.
func (r *ref) all(match func(trace.Event) bool) []int {
	var out []int
	for j, x := range r.ev {
		if match(x) {
			out = append(out, j)
		}
	}
	return out
}

// nth returns the index of the k-th (0-based) event before limit that
// satisfies match, or -1.
func (r *ref) nth(k, limit int, match func(trace.Event) bool) int {
	for j := 0; j < limit; j++ {
		if match(r.ev[j]) {
			if k == 0 {
				return j
			}
			k--
		}
	}
	return -1
}

// waker resolves unblock event i. blocked reports whether the thread
// waited in the interval before i; w is the event that released it, or
// -1 when i is not an unblock event or its waker is unknown.
func (r *ref) waker(i int) (blocked bool, w int) {
	e := r.ev[i]
	on := func(kind trace.EventKind) func(trace.Event) bool {
		return func(x trace.Event) bool { return x.Kind == kind && x.Obj == e.Obj }
	}
	switch e.Kind {
	case trace.EvThreadStart:
		// Thread start → the creator's create event.
		for j, c := range r.ev {
			if c.Kind == trace.EvThreadCreate && trace.ThreadID(c.Arg) == e.Thread {
				return true, j
			}
		}
		return false, -1

	case trace.EvLockObtain:
		// "The thread holding the same lock adjacently before the
		// blocked thread": the latest earlier release of the lock.
		if !e.Contended() {
			return false, -1
		}
		for j := i - 1; j >= 0; j-- {
			if r.ev[j].Kind == trace.EvLockRelease && r.ev[j].Obj == e.Obj {
				return true, j
			}
		}
		return true, -1

	case trace.EvBarrierDepart:
		// "The thread reaching the same barrier lastly": the last
		// arrival of this depart's episode. Arrivals fill episodes of
		// Parties in trace order (one endless episode when Parties is
		// 0), and a thread's k-th depart leaves the episode of its k-th
		// arrival. Arg = 1 marks the last arriver, which never waited.
		arrivals := r.all(on(trace.EvBarrierArrive))
		parties := r.tr.Object(e.Obj).Parties
		episode := func(m int) int {
			if parties <= 0 {
				return 0
			}
			return m / parties
		}
		k := r.count(i, func(x trace.Event) bool { return on(trace.EvBarrierDepart)(x) && x.Thread == e.Thread })
		ep := -1
		for m, j := range arrivals {
			if r.ev[j].Thread == e.Thread {
				if k == 0 {
					ep = episode(m)
					break
				}
				k--
			}
		}
		if e.Arg != 0 || ep < 0 {
			return false, -1
		}
		last := -1
		for m, j := range arrivals {
			if episode(m) == ep {
				last = j
			}
		}
		if r.ev[last].Thread == e.Thread {
			return true, -1
		}
		return true, last

	case trace.EvCondWaitEnd:
		// "The thread signaling the same condition variable to the
		// blocked thread".
		return true, r.condWaker(i)

	case trace.EvChanSend, trace.EvChanRecv:
		// DESIGN §11: value receive #r was delivered by send #r; send
		// #s on a capacity-C channel was admitted by value receive
		// #(s-C); a receive that observed the close was woken by it.
		if !e.ChanBlocked() {
			return false, -1
		}
		send := on(trace.EvChanSend)
		valueRecv := func(x trace.Event) bool { return on(trace.EvChanRecv)(x) && !x.ChanClosed() }
		switch {
		case e.ChanClosed():
			for j := i - 1; j >= 0; j-- {
				if on(trace.EvChanClose)(r.ev[j]) {
					return true, j
				}
			}
			return true, -1
		case e.Kind == trace.EvChanRecv:
			return true, r.nth(r.count(i, valueRecv), i, send)
		default:
			s := r.count(i, send) - max(r.tr.Object(e.Obj).Parties, 0)
			if s < 0 {
				return true, -1
			}
			return true, r.nth(s, i, valueRecv)
		}

	case trace.EvJoinEnd:
		// Join → the joinee's exit, when it came after the join began
		// (otherwise the joiner never waited).
		joinee := trace.ThreadID(e.Arg)
		exit := -1
		for j := i - 1; j >= 0; j-- {
			if r.ev[j].Kind == trace.EvThreadExit && r.ev[j].Thread == joinee {
				exit = j
				break
			}
		}
		var begin trace.Time
		for j := i - 1; j >= 0; j-- {
			if r.ev[j].Kind == trace.EvJoinBegin && r.ev[j].Thread == e.Thread {
				begin = r.ev[j].T
				break
			}
		}
		if exit >= 0 && r.ev[exit].T > begin {
			return true, exit
		}
		return false, -1
	}
	return false, -1
}

// condWaker replays condition variable i's history up to wait-end i:
// waiters queue in wait-begin order, a signal wakes the head, a
// broadcast wakes everyone queued. It returns the signal or broadcast
// that woke i's thread, or -1 (a wakeup without one).
func (r *ref) condWaker(i int) int {
	e := r.ev[i]
	var queue []trace.ThreadID
	wokenBy := map[trace.ThreadID]int{}
	for j := 0; j < i; j++ {
		x := r.ev[j]
		if x.Obj != e.Obj {
			continue
		}
		switch x.Kind {
		case trace.EvCondWaitBegin:
			queue = append(queue, x.Thread)
		case trace.EvCondSignal:
			if len(queue) > 0 {
				wokenBy[queue[0]] = j
				queue = queue[1:]
			}
		case trace.EvCondBroadcast:
			for _, th := range queue {
				wokenBy[th] = j
			}
			queue = nil
		case trace.EvCondWaitEnd:
			if _, ok := wokenBy[x.Thread]; ok {
				delete(wokenBy, x.Thread)
			} else {
				for k, th := range queue {
					if th == x.Thread {
						queue = append(queue[:k], queue[k+1:]...)
						break
					}
				}
			}
		}
	}
	if w, ok := wokenBy[e.Thread]; ok {
		return w
	}
	return -1
}

// criticalPath is the backward walk of Fig. 2:
//
//	seg  = find_the_last_segment();
//	stop = find_the_first_segment();
//	while (seg != stop) {
//	    if (segment_blocked_in_the_beginning(seg))
//	        seg = find_the_segment_released_me(seg);
//	    else
//	        seg = find_the_previous_segment(seg);
//	}
//
// The segment ending at event e is [prev(e).T, e.T] on e's thread.
func (r *ref) criticalPath() (*core.CriticalPath, error) {
	// The last segment: the exit of the last-finishing thread, by
	// (T, Seq); the last event when no thread exited.
	cur := len(r.ev) - 1
	found := false
	for j, e := range r.ev {
		if e.Kind != trace.EvThreadExit {
			continue
		}
		if a := r.ev[cur]; !found || e.T > a.T || (e.T == a.T && e.Seq > a.Seq) {
			cur, found = j, true
		}
	}
	cp := &core.CriticalPath{
		LastThread: r.ev[cur].Thread,
		WallTime:   r.ev[len(r.ev)-1].T - r.ev[0].T,
	}
	var pieces []core.Piece
	var jumps []core.Jump
	for steps := 0; ; steps++ {
		if steps > 2*len(r.ev)+2 {
			return nil, fmt.Errorf("naive: walk did not terminate")
		}
		cp.Steps = steps
		e := r.ev[cur]
		blocked, w := r.waker(cur)
		if e.Kind == trace.EvThreadStart {
			if w < 0 {
				break // the root thread's start: the program's beginning
			}
			jumps = append(jumps, core.Jump{T: e.T, From: e.Thread, To: r.ev[w].Thread, Kind: core.JumpStart, Obj: trace.NoObj})
			cur = w
			continue
		}
		p := r.prev(cur)
		if p < 0 {
			break
		}
		if blocked && w >= 0 {
			// A condition wait that re-acquired a contended mutex at or
			// after its signal was released last by the mutex: step
			// back to the obtain, whose own jump follows the releaser.
			if e.Kind == trace.EvCondWaitEnd {
				pb, pw := r.waker(p)
				if r.ev[p].Kind == trace.EvLockObtain && pb && pw >= 0 && r.ev[p].T >= r.ev[w].T {
					cur = p
					continue
				}
			}
			jumps = append(jumps, core.Jump{T: e.T, From: e.Thread, To: r.ev[w].Thread,
				Kind: jumpKind(e.Kind), Obj: e.Obj, Wait: e.T - r.ev[p].T})
			cur = w
			continue
		}
		if from, to := r.ev[p].T, e.T; to > from {
			kind := core.PieceExec
			if blocked {
				kind = core.PieceWait // a wait whose waker is unknown
			}
			pieces = append(pieces, core.Piece{Thread: e.Thread, From: from, To: to, Kind: kind})
		}
		cur = p
	}
	cp.Jumps = len(jumps)
	for k := len(pieces) - 1; k >= 0; k-- {
		p := pieces[k]
		cp.Pieces = append(cp.Pieces, p)
		cp.Length += p.Dur()
		if p.Kind == core.PieceExec {
			cp.ExecTime += p.Dur()
		} else {
			cp.WaitTime += p.Dur()
		}
	}
	for k := len(jumps) - 1; k >= 0; k-- {
		cp.JumpLog = append(cp.JumpLog, jumps[k])
	}
	return cp, nil
}

func jumpKind(k trace.EventKind) core.JumpKind {
	switch k {
	case trace.EvLockObtain:
		return core.JumpLock
	case trace.EvBarrierDepart:
		return core.JumpBarrier
	case trace.EvCondWaitEnd:
		return core.JumpCond
	case trace.EvJoinEnd:
		return core.JumpJoin
	case trace.EvChanSend, trace.EvChanRecv:
		return core.JumpChan
	}
	return 0
}

// metrics fills the per-thread, per-lock and per-channel statistics.
func (r *ref) metrics(an *core.Analysis, clipHold bool) {
	tr := r.tr
	nThreads := len(tr.Threads)
	end := r.ev[len(r.ev)-1].T

	an.Threads = make([]core.ThreadStats, nThreads)
	for tid := range an.Threads {
		ts := &an.Threads[tid]
		ts.Thread, ts.Name, ts.End = trace.ThreadID(tid), tr.Threads[tid].Name, end
		for _, e := range r.ev {
			switch {
			case e.Thread != ts.Thread:
			case e.Kind == trace.EvThreadStart:
				ts.Start = e.T
			case e.Kind == trace.EvThreadExit:
				ts.End = e.T
			}
		}
		ts.Lifetime = ts.End - ts.Start
	}
	piecesOf := make([][]core.Piece, nThreads)
	for _, p := range an.CP.Pieces {
		an.Threads[p.Thread].TimeOnCP += p.Dur()
		piecesOf[p.Thread] = append(piecesOf[p.Thread], p)
	}

	locks := map[trace.ObjID]*core.LockStats{}
	chans := map[trace.ObjID]*core.ChanStats{}
	for _, o := range tr.Objects {
		switch o.Kind {
		case trace.ObjMutex:
			locks[o.ID] = &core.LockStats{Lock: o.ID, Name: o.Name}
		case trace.ObjChan:
			chans[o.ID] = &core.ChanStats{Chan: o.ID, Name: o.Name, Capacity: o.Parties}
		}
	}
	// waitOf[lock][tid] and holdOf[lock][tid]: per-thread sums for the
	// TYPE 2 percentages.
	waitOf := map[trace.ObjID][]trace.Time{}
	holdOf := map[trace.ObjID][]trace.Time{}

	for i, e := range r.ev {
		ts := &an.Threads[e.Thread]
		var waited trace.Time // since the thread's previous event: the wait, when i ends one
		if p := r.prev(i); p >= 0 {
			waited = e.T - r.ev[p].T
		}
		switch e.Kind {
		case trace.EvBarrierDepart:
			if e.Arg == 0 {
				ts.BarrierWait += waited
			}
		case trace.EvCondWaitEnd:
			for j := i - 1; j >= 0; j-- {
				if b := r.ev[j]; b.Kind == trace.EvCondWaitBegin && b.Thread == e.Thread && b.Obj == e.Obj {
					ts.CondWait += e.T - b.T
					break
				}
			}
		case trace.EvJoinEnd:
			if blocked, _ := r.waker(i); blocked {
				ts.JoinWait += waited
			}
		case trace.EvChanSend, trace.EvChanRecv, trace.EvChanClose:
			cs := chans[e.Obj]
			switch {
			case e.Kind == trace.EvChanClose:
				cs.Closes++
			case e.Kind == trace.EvChanSend:
				cs.Sends++
			default:
				cs.Recvs++
			}
			if e.ChanBlocked() {
				if e.Kind == trace.EvChanSend {
					cs.BlockedSends++
					cs.SendWait += waited
				} else {
					cs.BlockedRecvs++
					cs.RecvWait += waited
				}
				cs.MaxWait = max(cs.MaxWait, waited)
				ts.ChanWait += waited
			}
		case trace.EvLockAcquire:
			// A critical section: acquire → obtain → release of one
			// lock by one thread (held to the trace's end if never
			// released).
			obtain, release := -1, -1
			for j := i + 1; j < len(r.ev) && release < 0; j++ {
				x := r.ev[j]
				if x.Thread != e.Thread || x.Obj != e.Obj {
					continue
				}
				if obtain < 0 && x.Kind == trace.EvLockObtain {
					obtain = j
				} else if obtain >= 0 && x.Kind == trace.EvLockRelease {
					release = j
				}
			}
			if obtain < 0 {
				continue
			}
			from, to := r.ev[obtain].T, end
			if release >= 0 {
				to = r.ev[release].T
			}
			o := r.ev[obtain]
			st := locks[e.Obj]
			wait, hold := from-e.T, to-from
			st.TotalInvocations++
			st.TotalWait += wait
			st.TotalHold += hold
			st.MaxWait = max(st.MaxWait, wait)
			st.MaxHold = max(st.MaxHold, hold)
			if o.Shared() {
				st.SharedInvocations++
			}
			if o.Contended() {
				st.TotalContended++
			}
			if waitOf[e.Obj] == nil {
				waitOf[e.Obj] = make([]trace.Time, nThreads)
				holdOf[e.Obj] = make([]trace.Time, nThreads)
			}
			waitOf[e.Obj][e.Thread] += wait
			holdOf[e.Obj][e.Thread] += hold
			ts.LockWait += wait
			ts.LockHold += hold
			ts.Invocations++

			// Hot critical section: the hold interval intersects the
			// critical path on this thread.
			onCP, onPath := false, trace.Time(0)
			for _, p := range piecesOf[e.Thread] {
				if lo, hi := max(from, p.From), min(to, p.To); hi > lo {
					onCP = true
					onPath += hi - lo
				} else if from == to && p.From <= from && from <= p.To {
					onCP = true // a zero-length section the path passes through
				}
			}
			if onCP {
				st.Critical = true
				st.InvocationsOnCP++
				if o.Contended() {
					st.ContendedOnCP++
				}
				if clipHold {
					st.HoldOnCP += onPath
				} else {
					st.HoldOnCP += hold
				}
			}
		}
	}
	for _, j := range an.CP.JumpLog {
		if j.Kind == core.JumpChan {
			chans[j.Obj].JumpsOnCP++
			chans[j.Obj].WaitOnCP += j.Wait
		}
	}

	// Table 2 definitions.
	n := float64(nThreads)
	cpLen := float64(an.CP.Length)
	for _, o := range tr.Objects {
		st := locks[o.ID]
		if st == nil {
			continue
		}
		if cpLen > 0 {
			st.CPTimePct = 100 * float64(st.HoldOnCP) / cpLen
		}
		if st.InvocationsOnCP > 0 {
			st.ContProbOnCP = 100 * float64(st.ContendedOnCP) / float64(st.InvocationsOnCP)
		}
		if st.TotalInvocations > 0 {
			st.AvgContProb = 100 * float64(st.TotalContended) / float64(st.TotalInvocations)
		}
		if nThreads > 0 {
			st.AvgInvPerThread = float64(st.TotalInvocations) / n
			var waitPct, holdPct float64
			for tid, ts := range an.Threads {
				if ts.Lifetime > 0 && waitOf[o.ID] != nil {
					waitPct += 100 * float64(waitOf[o.ID][tid]) / float64(ts.Lifetime)
					holdPct += 100 * float64(holdOf[o.ID][tid]) / float64(ts.Lifetime)
				}
			}
			st.WaitTimePct = waitPct / n
			st.AvgHoldTimePct = holdPct / n
		}
		if st.AvgInvPerThread > 0 {
			st.InvIncrease = float64(st.InvocationsOnCP) / st.AvgInvPerThread
		}
		if st.AvgHoldTimePct > 0 {
			st.SizeIncrease = st.CPTimePct / st.AvgHoldTimePct
		}
		an.Locks = append(an.Locks, *st)
		an.Totals.ContendedInvs += st.TotalContended
		an.Totals.Mutexes++
	}
	// Ranked by CP Time (the paper's table order), then wait, then name.
	sort.Slice(an.Locks, func(i, j int) bool {
		a, b := an.Locks[i], an.Locks[j]
		if a.HoldOnCP != b.HoldOnCP {
			return a.HoldOnCP > b.HoldOnCP
		}
		if a.TotalWait != b.TotalWait {
			return a.TotalWait > b.TotalWait
		}
		return a.Name < b.Name
	})
	for _, o := range tr.Objects {
		if cs := chans[o.ID]; cs != nil {
			cs.TotalWait = cs.SendWait + cs.RecvWait
			an.Chans = append(an.Chans, *cs)
			an.Totals.Channels++
		}
	}
	sort.Slice(an.Chans, func(i, j int) bool {
		a, b := an.Chans[i], an.Chans[j]
		if a.WaitOnCP != b.WaitOnCP {
			return a.WaitOnCP > b.WaitOnCP
		}
		if a.TotalWait != b.TotalWait {
			return a.TotalWait > b.TotalWait
		}
		return a.Name < b.Name
	})

	an.Totals.Threads = nThreads
	an.Totals.Events = len(r.ev)
	for _, ts := range an.Threads {
		an.Totals.Invocations += ts.Invocations
		an.Totals.TotalLockWait += ts.LockWait
		an.Totals.TotalLockHold += ts.LockHold
		an.Totals.TotalBarrierWait += ts.BarrierWait
		an.Totals.TotalCondWait += ts.CondWait
		an.Totals.TotalChanWait += ts.ChanWait
	}
}

// Diff compares an analysis against the reference on every published
// result — critical path, lock, channel and thread statistics, totals
// — and describes the first difference, or returns "" when they agree.
// A nil and an empty slice compare equal.
func Diff(got, want *core.Analysis) string {
	g, w := got.CP, want.CP
	if !slices.Equal(g.Pieces, w.Pieces) {
		return fmt.Sprintf("critical-path pieces differ: got %d, want %d%s", len(g.Pieces), len(w.Pieces), firstDiff(g.Pieces, w.Pieces))
	}
	if !slices.Equal(g.JumpLog, w.JumpLog) {
		return fmt.Sprintf("jump logs differ: got %d, want %d%s", len(g.JumpLog), len(w.JumpLog), firstDiff(g.JumpLog, w.JumpLog))
	}
	g.Pieces, g.JumpLog, w.Pieces, w.JumpLog = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("critical paths differ:\n got %+v\nwant %+v", g, w)
	}
	if !slices.Equal(got.Locks, want.Locks) {
		return "lock statistics differ" + firstDiff(got.Locks, want.Locks)
	}
	if !slices.Equal(got.Chans, want.Chans) {
		return "channel statistics differ" + firstDiff(got.Chans, want.Chans)
	}
	if !slices.Equal(got.Threads, want.Threads) {
		return "thread statistics differ" + firstDiff(got.Threads, want.Threads)
	}
	if got.Totals != want.Totals {
		return fmt.Sprintf("totals differ:\n got %+v\nwant %+v", got.Totals, want.Totals)
	}
	return ""
}

func firstDiff[T comparable](got, want []T) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf(" at %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return ""
}
