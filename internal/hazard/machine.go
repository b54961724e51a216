package hazard

import (
	"fmt"
	"sort"

	"critlock/internal/trace"
)

// maxInherited caps the inherited-hold list per thread. Real wakeup
// chains carry a handful of locks; the cap only matters for
// adversarial (fuzzed) inputs, where it bounds memory. Oldest entries
// win, deterministically.
const maxInherited = 64

// heldLock is one entry of a thread's own acquisition stack. acq is a
// global monotonically increasing acquisition ID: an inherited hold is
// live exactly while its acq is still on the owner's stack.
type heldLock struct {
	obj    trace.ObjID
	acq    uint64
	t      trace.Time // obtain time
	shared bool
}

// inhHold is a lock held by another thread whose critical section
// extended into this one via a wakeup chain.
type inhHold struct {
	obj   trace.ObjID
	owner trace.ThreadID
	acq   uint64
	t     trace.Time // owner's obtain time
	via   string     // wakeup chain that carried the hold across
}

type threadState struct {
	held      []heldLock
	inherited []inhHold
	exited    bool
}

// condMachine mirrors core pass 1's condStream (FIFO waiters, Signal
// pops the front, Broadcast wakes all, spurious wakeups tolerated),
// but carries hold snapshots instead of waker indices, plus the
// lost-signal and guard bookkeeping.
type condMachine struct {
	waiting []trace.ThreadID
	wakerOf map[trace.ThreadID][]inhHold
	ever    map[trace.ThreadID]bool
	// cands are signal/broadcast events that looked lost when they
	// happened; any later wait on the cond clears them.
	cands []LostSignal
	// assocs are the distinct associated mutexes seen across wait
	// begins, with one witness site each, in first-seen order.
	assocs     []trace.ObjID
	assocSites []GuardSite
}

// chanOp records one channel operation for later waker resolution.
type chanOp struct {
	t      trace.Time
	thread trace.ThreadID
	snap   []inhHold
}

// chanMachine mirrors core pass 1's chanPairing FIFO counting: value
// recv #r consumes send #r, a blocked send #s was admitted by recv
// #(s-capacity), a closed recv is ordered after the close. At a
// rendezvous the simulator may emit the recv completion *before* the
// matching send completion (same instant), so a recv that finds sendQ
// empty leaves a debt in owed that the send completion settles.
type chanMachine struct {
	capacity int
	// sendQ holds the completed sends not yet consumed by a recv —
	// exactly the undelivered values at end of trace.
	sendQ []chanOp
	// owed holds receivers whose matching send completion is still in
	// flight at the same instant.
	owed []trace.ThreadID
	// recvQ holds value-recv sites recv #recvBase.., pruned to what
	// future blocked sends can still reference.
	recvQ    []chanOp
	recvBase int
	sends    int
	closed   bool
	closeOp  chanOp
}

// guardState tracks lock-set consistency for one chan or barrier: flag
// when two threads operate on it under disjoint *non-empty* (own) lock
// sets. One side holding nothing is the normal hand-off pattern and
// stays silent; two threads each believing a different lock guards the
// object is the Eraser-style inconsistency.
type guardState struct {
	kind        string
	nonEmpty    *GuardSite
	nonEmptySet []trace.ObjID
	conflict    *GuardSite
}

type edgeKey struct{ from, to trace.ObjID }

type edgeAgg struct {
	count, crossCount int
	witness           *Witness
	crossWitness      *Witness
}

type machine struct {
	tr      *trace.Trace
	acqSeq  uint64
	threads map[trace.ThreadID]*threadState
	edges   map[edgeKey]*edgeAgg
	conds   map[trace.ObjID]*condMachine
	chans   map[trace.ObjID]*chanMachine
	guards  map[trace.ObjID]*guardState
	prevT   trace.Time
	n       int
}

func newMachine(tr *trace.Trace) *machine {
	return &machine{
		tr:      tr,
		threads: make(map[trace.ThreadID]*threadState),
		edges:   make(map[edgeKey]*edgeAgg),
		conds:   make(map[trace.ObjID]*condMachine),
		chans:   make(map[trace.ObjID]*chanMachine),
		guards:  make(map[trace.ObjID]*guardState),
	}
}

func (m *machine) thread(id trace.ThreadID) *threadState {
	ts := m.threads[id]
	if ts == nil {
		ts = &threadState{}
		m.threads[id] = ts
	}
	return ts
}

func (m *machine) cond(id trace.ObjID) *condMachine {
	c := m.conds[id]
	if c == nil {
		c = &condMachine{wakerOf: make(map[trace.ThreadID][]inhHold), ever: make(map[trace.ThreadID]bool)}
		m.conds[id] = c
	}
	return c
}

func (m *machine) chanOf(id trace.ObjID) *chanMachine {
	c := m.chans[id]
	if c == nil {
		capacity := 0
		if int(id) >= 0 && int(id) < len(m.tr.Objects) {
			capacity = m.tr.Objects[id].Parties
		}
		c = &chanMachine{capacity: capacity}
		m.chans[id] = c
	}
	return c
}

func (m *machine) objName(id trace.ObjID) string { return m.tr.ObjName(id) }

func (m *machine) threadName(id trace.ThreadID) string {
	if int(id) >= 0 && int(id) < len(m.tr.Threads) {
		return m.tr.Threads[id].Name
	}
	return fmt.Sprintf("<t%d>", id)
}

// liveInh reports whether an inherited hold's owner still has the
// acquisition on its own stack: the cross-thread extension ends the
// moment the owner releases.
func (m *machine) liveInh(ih inhHold) bool {
	ts := m.threads[ih.owner]
	if ts == nil {
		return false
	}
	for i := range ts.held {
		if ts.held[i].acq == ih.acq {
			return true
		}
	}
	return false
}

// snapshot captures the holds a waker passes into the thread it wakes:
// its own stack plus any still-live holds it itself inherited
// (transitive waker chains keep their original owner and via).
func (m *machine) snapshot(t trace.ThreadID, via string) []inhHold {
	ts := m.threads[t]
	if ts == nil || (len(ts.held) == 0 && len(ts.inherited) == 0) {
		return nil
	}
	out := make([]inhHold, 0, len(ts.held)+len(ts.inherited))
	for _, h := range ts.held {
		out = append(out, inhHold{obj: h.obj, owner: t, acq: h.acq, t: h.t, via: via})
	}
	for _, ih := range ts.inherited {
		if m.liveInh(ih) {
			out = append(out, ih)
		}
	}
	return out
}

// inheritInto installs a waker snapshot into the woken thread,
// deduplicating by acquisition ID and dropping dead entries.
func (m *machine) inheritInto(t trace.ThreadID, snap []inhHold) {
	if len(snap) == 0 {
		return
	}
	ts := m.thread(t)
	for _, ih := range snap {
		if ih.owner == t || !m.liveInh(ih) {
			continue
		}
		dup := false
		for i := range ts.inherited {
			if ts.inherited[i].acq == ih.acq {
				dup = true
				break
			}
		}
		if !dup && len(ts.inherited) < maxInherited {
			ts.inherited = append(ts.inherited, ih)
		}
	}
}

// heldNames renders the acquisition stack of a thread for a witness:
// own holds first (in acquisition order), then live inherited holds
// annotated with owner and wakeup chain.
func (m *machine) heldNames(ts *threadState) []string {
	out := make([]string, 0, len(ts.held)+len(ts.inherited))
	for _, h := range ts.held {
		n := m.objName(h.obj)
		if h.shared {
			n += " (shared)"
		}
		out = append(out, n)
	}
	for _, ih := range ts.inherited {
		out = append(out, fmt.Sprintf("%s (held by %s, via %s)",
			m.objName(ih.obj), m.threadName(ih.owner), ih.via))
	}
	return out
}

func (m *machine) addEdge(from trace.ObjID, e *trace.Event, held []string, cross bool, outer inhHold) {
	k := edgeKey{from, e.Obj}
	agg := m.edges[k]
	if agg == nil {
		agg = &edgeAgg{}
		m.edges[k] = agg
	}
	agg.count++
	if cross {
		agg.crossCount++
	}
	if agg.witness == nil || (cross && agg.crossWitness == nil) {
		w := &Witness{
			Thread:     e.Thread,
			ThreadName: m.threadName(e.Thread),
			OuterT:     outer.t,
			InnerT:     e.T,
			Held:       held,
		}
		if cross {
			w.CrossThread = true
			w.Owner = outer.owner
			w.OwnerName = m.threadName(outer.owner)
			w.Via = outer.via
		}
		if agg.witness == nil {
			agg.witness = w
		}
		if cross && agg.crossWitness == nil {
			agg.crossWitness = w
		}
	}
}

// guardOp folds one chan/barrier operation into its guard state.
func (m *machine) guardOp(obj trace.ObjID, kind, op string, e *trace.Event) {
	ts := m.thread(e.Thread)
	if len(ts.held) == 0 {
		return
	}
	g := m.guards[obj]
	if g == nil {
		g = &guardState{kind: kind}
		m.guards[obj] = g
	}
	set := make([]trace.ObjID, 0, len(ts.held))
	for _, h := range ts.held {
		set = append(set, h.obj)
	}
	site := func() *GuardSite {
		return &GuardSite{
			Op:         op,
			Thread:     e.Thread,
			ThreadName: m.threadName(e.Thread),
			T:          e.T,
			Held:       objNames(m.tr, set),
		}
	}
	if g.nonEmpty == nil {
		g.nonEmpty = site()
		g.nonEmptySet = set
		return
	}
	if g.conflict == nil && e.Thread != g.nonEmpty.Thread && disjoint(set, g.nonEmptySet) {
		g.conflict = site()
	}
}

func disjoint(a, b []trace.ObjID) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return false
			}
		}
	}
	return true
}

func objNames(tr *trace.Trace, ids []trace.ObjID) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = tr.ObjName(id)
	}
	return out
}

// step folds one event, in canonical (T, Seq) order, into the machine.
func (m *machine) step(e *trace.Event) error {
	if e.Kind < trace.EvThreadStart || e.Kind > trace.EvSelect {
		return fmt.Errorf("hazard: event %d: invalid kind %d", m.n, e.Kind)
	}
	if e.T < m.prevT {
		return fmt.Errorf("hazard: event %d: time %d before predecessor %d (trace not in canonical order)", m.n, e.T, m.prevT)
	}
	if int(e.Thread) < 0 || int(e.Thread) >= len(m.tr.Threads) {
		return fmt.Errorf("hazard: event %d: thread %d out of range", m.n, e.Thread)
	}
	m.prevT = e.T
	m.n++

	switch e.Kind {
	case trace.EvLockObtain:
		ts := m.thread(e.Thread)
		var held []string
		// Intra-thread edges from every own hold.
		for _, h := range ts.held {
			if h.obj == e.Obj {
				continue
			}
			if held == nil {
				held = m.heldNames(ts)
			}
			m.addEdge(h.obj, e, held, false, inhHold{obj: h.obj, owner: e.Thread, acq: h.acq, t: h.t})
		}
		// Cross-thread edges from live inherited holds; dead ones are
		// compacted away here.
		live := ts.inherited[:0]
		for _, ih := range ts.inherited {
			if !m.liveInh(ih) {
				continue
			}
			live = append(live, ih)
			if ih.obj == e.Obj {
				continue
			}
			if held == nil {
				held = m.heldNames(ts)
			}
			m.addEdge(ih.obj, e, held, true, ih)
		}
		ts.inherited = live
		m.acqSeq++
		ts.held = append(ts.held, heldLock{
			obj:    e.Obj,
			acq:    m.acqSeq,
			t:      e.T,
			shared: e.Arg&trace.LockArgShared != 0,
		})

	case trace.EvLockRelease:
		ts := m.thread(e.Thread)
		for i := len(ts.held) - 1; i >= 0; i-- {
			if ts.held[i].obj == e.Obj {
				ts.held = append(ts.held[:i], ts.held[i+1:]...)
				break
			}
		}

	case trace.EvCondWaitBegin:
		c := m.cond(e.Obj)
		// A waiter exists now, so no earlier signal was lost after all.
		c.cands = nil
		c.waiting = append(c.waiting, e.Thread)
		c.ever[e.Thread] = true
		// Guard: the associated mutex travels in Arg. Waiting under two
		// different mutexes loses wakeups (the cond's queue is only
		// atomic with respect to one of them).
		if assoc := trace.ObjID(e.Arg); assoc >= 0 {
			known := false
			for _, a := range c.assocs {
				if a == assoc {
					known = true
					break
				}
			}
			if !known {
				c.assocs = append(c.assocs, assoc)
				c.assocSites = append(c.assocSites, GuardSite{
					Op:         "wait",
					Thread:     e.Thread,
					ThreadName: m.threadName(e.Thread),
					T:          e.T,
					Mutex:      m.objName(assoc),
				})
			}
		}

	case trace.EvCondWaitEnd:
		c := m.cond(e.Obj)
		if snap, ok := c.wakerOf[e.Thread]; ok {
			delete(c.wakerOf, e.Thread)
			m.inheritInto(e.Thread, snap)
		}
		// Spurious wakeup or fuzz noise: drop from the wait queue.
		for i, t := range c.waiting {
			if t == e.Thread {
				c.waiting = append(c.waiting[:i], c.waiting[i+1:]...)
				break
			}
		}

	case trace.EvCondSignal, trace.EvCondBroadcast:
		c := m.cond(e.Obj)
		via := fmt.Sprintf("cond %s wakeup", m.objName(e.Obj))
		if len(c.waiting) > 0 {
			snap := m.snapshot(e.Thread, via)
			if e.Kind == trace.EvCondSignal {
				t := c.waiting[0]
				c.waiting = c.waiting[1:]
				c.wakerOf[t] = snap
			} else {
				for _, t := range c.waiting {
					c.wakerOf[t] = snap
				}
				c.waiting = c.waiting[:0]
			}
			break
		}
		// Nobody is waiting. That is lost only if nobody *can* wait
		// again: every thread that ever waited on this cond has exited.
		// (Benign termination broadcasts always have live consumers
		// busy checking their predicate.)
		if len(c.ever) > 0 && m.allExited(c.ever) {
			kind := "signal"
			if e.Kind == trace.EvCondBroadcast {
				kind = "broadcast"
			}
			c.cands = append(c.cands, LostSignal{
				Kind:       kind,
				Object:     m.objName(e.Obj),
				Thread:     e.Thread,
				ThreadName: m.threadName(e.Thread),
				T:          e.T,
				Waiters:    len(c.ever),
				Detail: fmt.Sprintf("no thread is waiting and all %d thread(s) that ever waited have exited — the wakeup can never be consumed",
					len(c.ever)),
			})
		}

	case trace.EvChanSendBegin:
		m.guardOp(e.Obj, "chan", "send", e)

	case trace.EvChanSend:
		c := m.chanOf(e.Obj)
		// A blocked send #s was admitted by recv #(s-capacity): the
		// receiver's critical section extends into the sender.
		if e.Arg&trace.ChanArgBlocked != 0 {
			idx := c.sends - c.capacity
			if idx >= c.recvBase && idx-c.recvBase < len(c.recvQ) {
				m.inheritInto(e.Thread, c.recvQ[idx-c.recvBase].snap)
			}
		}
		c.sends++
		via := fmt.Sprintf("chan %s hand-off", m.objName(e.Obj))
		snap := m.snapshot(e.Thread, via)
		if len(c.owed) > 0 {
			// The matching recv already completed at this instant:
			// settle the hand-off now, before the receiver's next event.
			t := c.owed[0]
			c.owed = c.owed[1:]
			m.inheritInto(t, snap)
		} else {
			c.sendQ = append(c.sendQ, chanOp{t: e.T, thread: e.Thread, snap: snap})
		}
		for c.recvBase < c.sends-c.capacity && len(c.recvQ) > 0 {
			c.recvQ = c.recvQ[1:]
			c.recvBase++
		}

	case trace.EvChanRecvBegin:
		m.guardOp(e.Obj, "chan", "recv", e)

	case trace.EvChanRecv:
		c := m.chanOf(e.Obj)
		if e.Arg&trace.ChanArgClosed != 0 {
			// Receiving the closed marker is ordered after the close.
			if c.closed {
				m.inheritInto(e.Thread, c.closeOp.snap)
			}
			break
		}
		// Value recv #r consumes send #r — a hand-off dependency,
		// blocked or not.
		if len(c.sendQ) > 0 {
			snap := c.sendQ[0].snap
			c.sendQ = c.sendQ[1:]
			m.inheritInto(e.Thread, snap)
		} else {
			// Matching send completion is still in flight (rendezvous
			// emitted recv first); settle when it arrives.
			c.owed = append(c.owed, e.Thread)
		}
		via := fmt.Sprintf("chan %s slot", m.objName(e.Obj))
		c.recvQ = append(c.recvQ, chanOp{t: e.T, thread: e.Thread, snap: m.snapshot(e.Thread, via)})
		for c.recvBase < c.sends-c.capacity && len(c.recvQ) > 0 {
			c.recvQ = c.recvQ[1:]
			c.recvBase++
		}

	case trace.EvChanClose:
		m.guardOp(e.Obj, "chan", "close", e)
		c := m.chanOf(e.Obj)
		via := fmt.Sprintf("chan %s close", m.objName(e.Obj))
		c.closed = true
		c.closeOp = chanOp{t: e.T, thread: e.Thread, snap: m.snapshot(e.Thread, via)}

	case trace.EvBarrierArrive:
		m.guardOp(e.Obj, "barrier", "arrive", e)

	case trace.EvThreadStart:
		m.thread(e.Thread).exited = false

	case trace.EvThreadExit:
		ts := m.thread(e.Thread)
		ts.exited = true
		ts.held = nil
		ts.inherited = nil
	}
	return nil
}

func (m *machine) allExited(set map[trace.ThreadID]bool) bool {
	for t := range set {
		ts := m.threads[t]
		if ts == nil || !ts.exited {
			return false
		}
	}
	return true
}

// finish assembles the deterministic report: surviving lost-signal
// candidates, end-of-trace undelivered sends, guard issues, the sorted
// edge list, and the SCC cycles.
func (m *machine) finish() *Report {
	r := &Report{Events: m.n}

	// Lost cond signals: candidates that no later wait cleared, plus
	// cond guard inconsistencies.
	for _, id := range sortedKeys(m.conds) {
		c := m.conds[id]
		r.LostSignals = append(r.LostSignals, c.cands...)
		if len(c.assocs) >= 2 {
			r.GuardIssues = append(r.GuardIssues, GuardIssue{
				Object:  m.objName(id),
				ObjKind: "cond",
				Detail: fmt.Sprintf("waited on under %d different mutexes (%s vs %s) — wakeups can be lost between the two guards",
					len(c.assocs), c.assocSites[0].Mutex, c.assocSites[1].Mutex),
				Sites: []GuardSite{c.assocSites[0], c.assocSites[1]},
			})
		}
	}

	// Lost channel values: sends never received by the end of the
	// trace. sendQ holds exactly the undelivered ones.
	for _, id := range sortedKeys(m.chans) {
		c := m.chans[id]
		if len(c.sendQ) == 0 {
			continue
		}
		name := m.objName(id)
		if c.closed {
			r.LostSignals = append(r.LostSignals, LostSignal{
				Kind:        "close",
				Object:      name,
				Thread:      c.closeOp.thread,
				ThreadName:  m.threadName(c.closeOp.thread),
				T:           c.closeOp.t,
				Undelivered: len(c.sendQ),
				Detail:      fmt.Sprintf("channel closed with %d buffered value(s) never received", len(c.sendQ)),
			})
		} else {
			r.LostSignals = append(r.LostSignals, LostSignal{
				Kind:        "send",
				Object:      name,
				Thread:      c.sendQ[0].thread,
				ThreadName:  m.threadName(c.sendQ[0].thread),
				T:           c.sendQ[0].t,
				Undelivered: len(c.sendQ),
				Detail:      fmt.Sprintf("%d value(s) sent but no goroutine ever receives them", len(c.sendQ)),
			})
		}
	}
	sort.SliceStable(r.LostSignals, func(i, j int) bool {
		a, b := r.LostSignals[i], r.LostSignals[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Kind < b.Kind
	})

	// Guard issues for chans/barriers: two threads, disjoint non-empty
	// lock sets.
	for _, id := range sortedKeys(m.guards) {
		g := m.guards[id]
		if g.nonEmpty == nil || g.conflict == nil {
			continue
		}
		r.GuardIssues = append(r.GuardIssues, GuardIssue{
			Object:  m.objName(id),
			ObjKind: g.kind,
			Detail: fmt.Sprintf("operated on by multiple threads under disjoint lock sets (%v vs %v)",
				g.nonEmpty.Held, g.conflict.Held),
			Sites: []GuardSite{*g.nonEmpty, *g.conflict},
		})
	}
	sort.SliceStable(r.GuardIssues, func(i, j int) bool {
		if r.GuardIssues[i].Object != r.GuardIssues[j].Object {
			return r.GuardIssues[i].Object < r.GuardIssues[j].Object
		}
		return r.GuardIssues[i].ObjKind < r.GuardIssues[j].ObjKind
	})

	// Edge list, sorted by (from, to) names with IDs as tiebreak.
	keys := make([]edgeKey, 0, len(m.edges))
	for k := range m.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		an, bn := m.objName(a.from), m.objName(b.from)
		if an != bn {
			return an < bn
		}
		an, bn = m.objName(a.to), m.objName(b.to)
		if an != bn {
			return an < bn
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	edgeOf := make(map[edgeKey]Edge, len(keys))
	for _, k := range keys {
		agg := m.edges[k]
		e := Edge{
			From:         m.objName(k.from),
			To:           m.objName(k.to),
			Count:        agg.count,
			CrossCount:   agg.crossCount,
			Witness:      *agg.witness,
			CrossWitness: agg.crossWitness,
		}
		edgeOf[k] = e
		r.Edges = append(r.Edges, e)
	}

	r.Cycles = m.cycles(keys, edgeOf)
	return r
}

func sortedKeys[V any](m map[trace.ObjID]V) []trace.ObjID {
	ids := make([]trace.ObjID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
