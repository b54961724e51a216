package trace

import (
	"errors"
	"fmt"
)

// ValidationError aggregates all problems found in a trace.
type ValidationError struct {
	Problems []string
}

// Error joins the first few problems into one message.
func (e *ValidationError) Error() string {
	const show = 5
	msg := fmt.Sprintf("trace: %d validation problem(s)", len(e.Problems))
	for i, p := range e.Problems {
		if i == show {
			msg += fmt.Sprintf("; ... and %d more", len(e.Problems)-show)
			break
		}
		msg += "; " + p
	}
	return msg
}

// Is makes every ValidationError match ErrMalformed.
func (e *ValidationError) Is(target error) bool { return target == ErrMalformed }

// Validate checks the structural well-formedness of a trace:
//
//   - events sorted by (T, Seq), with thread/object IDs in range;
//   - per thread: starts with thread-start, ends with thread-exit, and
//     no events outside that window;
//   - per (thread, mutex): acquire → obtain → release sequences, with
//     no release of a lock the thread does not hold;
//   - per (thread, barrier/cond): arrive/depart and wait-begin/wait-end
//     correctly bracketed;
//   - per (thread, chan): send/recv begin → completion sequences, with
//     select-chosen completions preceded by a select event, and no
//     channel closed twice;
//   - lock events reference mutex objects, barrier events barriers,
//     cond events condvars, channel events channels;
//   - thread-create/thread-start and join-begin/join-end reference
//     existing threads.
//
// A nil return means the trace can safely be fed to the analyzer.
func Validate(tr *Trace) error {
	var v validator
	v.run(tr)
	if len(v.problems) == 0 {
		return nil
	}
	return &ValidationError{Problems: v.problems}
}

type validator struct {
	problems []string
}

func (v *validator) errf(format string, args ...any) {
	if len(v.problems) < 1000 { // cap memory on pathological traces
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

type threadState struct {
	started bool
	exited  bool
	// held maps mutex → hold mode (LockArgShared bit) while the
	// thread holds it.
	held map[ObjID]int64
	// pendingAcquire maps mutex → true between acquire and obtain.
	pendingAcquire map[ObjID]bool
	// inBarrier maps barrier → true between arrive and depart.
	inBarrier map[ObjID]bool
	// inCondWait maps cond → true between wait-begin and wait-end.
	inCondWait map[ObjID]bool
	// pendingSend/pendingRecv map chan → true between a channel op's
	// begin and its completion.
	pendingSend map[ObjID]bool
	pendingRecv map[ObjID]bool
	// inSelect is true between a select event and the completion of
	// its chosen case (a select resolved by default leaves it set; the
	// next select-chosen completion still needs a fresh select event,
	// which simply re-arms the flag).
	inSelect bool
}

func (v *validator) run(tr *Trace) {
	states := make([]threadState, len(tr.Threads))
	for i := range states {
		states[i] = threadState{
			held:           make(map[ObjID]int64),
			pendingAcquire: make(map[ObjID]bool),
			inBarrier:      make(map[ObjID]bool),
			inCondWait:     make(map[ObjID]bool),
			pendingSend:    make(map[ObjID]bool),
			pendingRecv:    make(map[ObjID]bool),
		}
	}
	closedChans := make(map[ObjID]bool)

	objKind := func(id ObjID) (ObjKind, bool) {
		if id < 0 || int(id) >= len(tr.Objects) {
			return 0, false
		}
		return tr.Objects[id].Kind, true
	}

	var prevT Time
	var prevSeq uint64
	for i, e := range tr.Events {
		if i > 0 && (e.T < prevT || (e.T == prevT && e.Seq <= prevSeq)) {
			v.errf("event %d out of order (t=%d seq=%d after t=%d seq=%d)", i, e.T, e.Seq, prevT, prevSeq)
		}
		prevT, prevSeq = e.T, e.Seq
		if !e.Kind.Valid() {
			v.errf("event %d: invalid kind %d", i, e.Kind)
			continue
		}
		if e.Thread < 0 || int(e.Thread) >= len(tr.Threads) {
			v.errf("event %d: thread %d out of range", i, e.Thread)
			continue
		}
		st := &states[e.Thread]
		if e.Kind != EvThreadStart && !st.started {
			v.errf("event %d: thread %d has %s before thread-start", i, e.Thread, e.Kind)
		}
		if st.exited {
			v.errf("event %d: thread %d has %s after thread-exit", i, e.Thread, e.Kind)
		}

		switch e.Kind {
		case EvThreadStart:
			if st.started {
				v.errf("event %d: duplicate thread-start for thread %d", i, e.Thread)
			}
			st.started = true
			if e.Thread != 0 {
				creator := ThreadID(e.Arg)
				if creator < 0 || int(creator) >= len(tr.Threads) {
					v.errf("event %d: thread-start creator %d out of range", i, e.Arg)
				}
			}
		case EvThreadExit:
			st.exited = true
			for m := range st.held {
				v.errf("event %d: thread %d exits holding mutex %q", i, e.Thread, tr.ObjName(m))
			}
		case EvThreadCreate, EvJoinBegin, EvJoinEnd:
			target := ThreadID(e.Arg)
			if target < 0 || int(target) >= len(tr.Threads) {
				v.errf("event %d: %s target thread %d out of range", i, e.Kind, e.Arg)
			}
		case EvLockAcquire, EvLockObtain, EvLockRelease:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjMutex {
				v.errf("event %d: %s on non-mutex object %d", i, e.Kind, e.Obj)
				continue
			}
			switch e.Kind {
			case EvLockAcquire:
				if st.pendingAcquire[e.Obj] {
					v.errf("event %d: thread %d double-acquire of %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				if _, holds := st.held[e.Obj]; holds {
					v.errf("event %d: thread %d recursive acquire of %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.pendingAcquire[e.Obj] = true
			case EvLockObtain:
				if !st.pendingAcquire[e.Obj] {
					v.errf("event %d: thread %d obtain of %q without acquire", i, e.Thread, tr.ObjName(e.Obj))
				}
				delete(st.pendingAcquire, e.Obj)
				st.held[e.Obj] = e.Arg & LockArgShared
			case EvLockRelease:
				mode, holds := st.held[e.Obj]
				if !holds {
					v.errf("event %d: thread %d releases %q it does not hold", i, e.Thread, tr.ObjName(e.Obj))
				} else if mode != e.Arg&LockArgShared {
					v.errf("event %d: thread %d releases %q in the wrong mode", i, e.Thread, tr.ObjName(e.Obj))
				}
				delete(st.held, e.Obj)
			}
		case EvBarrierArrive, EvBarrierDepart:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjBarrier {
				v.errf("event %d: %s on non-barrier object %d", i, e.Kind, e.Obj)
				continue
			}
			if e.Kind == EvBarrierArrive {
				if st.inBarrier[e.Obj] {
					v.errf("event %d: thread %d re-arrives at barrier %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.inBarrier[e.Obj] = true
			} else {
				if !st.inBarrier[e.Obj] {
					v.errf("event %d: thread %d departs barrier %q without arriving", i, e.Thread, tr.ObjName(e.Obj))
				}
				delete(st.inBarrier, e.Obj)
			}
		case EvCondWaitBegin, EvCondWaitEnd, EvCondSignal, EvCondBroadcast:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjCond {
				v.errf("event %d: %s on non-cond object %d", i, e.Kind, e.Obj)
				continue
			}
			switch e.Kind {
			case EvCondWaitBegin:
				if st.inCondWait[e.Obj] {
					v.errf("event %d: thread %d nested cond-wait on %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.inCondWait[e.Obj] = true
			case EvCondWaitEnd:
				if !st.inCondWait[e.Obj] {
					v.errf("event %d: thread %d cond-wait-end on %q without begin", i, e.Thread, tr.ObjName(e.Obj))
				}
				delete(st.inCondWait, e.Obj)
			}
		case EvChanSendBegin, EvChanSend, EvChanRecvBegin, EvChanRecv, EvChanClose:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjChan {
				v.errf("event %d: %s on non-chan object %d", i, e.Kind, e.Obj)
				continue
			}
			switch e.Kind {
			case EvChanSendBegin:
				if st.pendingSend[e.Obj] {
					v.errf("event %d: thread %d nested send on %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.pendingSend[e.Obj] = true
			case EvChanSend:
				if e.Arg&ChanArgSelect != 0 {
					if !st.inSelect {
						v.errf("event %d: thread %d select-chosen send on %q without select", i, e.Thread, tr.ObjName(e.Obj))
					}
					st.inSelect = false
				} else {
					if !st.pendingSend[e.Obj] {
						v.errf("event %d: thread %d send on %q without begin", i, e.Thread, tr.ObjName(e.Obj))
					}
					delete(st.pendingSend, e.Obj)
				}
			case EvChanRecvBegin:
				if st.pendingRecv[e.Obj] {
					v.errf("event %d: thread %d nested recv on %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.pendingRecv[e.Obj] = true
			case EvChanRecv:
				if e.Arg&ChanArgSelect != 0 {
					if !st.inSelect {
						v.errf("event %d: thread %d select-chosen recv on %q without select", i, e.Thread, tr.ObjName(e.Obj))
					}
					st.inSelect = false
				} else {
					if !st.pendingRecv[e.Obj] {
						v.errf("event %d: thread %d recv on %q without begin", i, e.Thread, tr.ObjName(e.Obj))
					}
					delete(st.pendingRecv, e.Obj)
				}
			case EvChanClose:
				if closedChans[e.Obj] {
					v.errf("event %d: channel %q closed twice", i, tr.ObjName(e.Obj))
				}
				closedChans[e.Obj] = true
			}
		case EvSelect:
			if e.Obj != NoObj {
				v.errf("event %d: select with object %d (want none)", i, e.Obj)
			}
			st.inSelect = true
		}
	}

	for id := range states {
		st := &states[id]
		if !st.started && !st.exited {
			// Thread registered but never ran: tolerated (e.g. snapshot
			// mid-run), but flag threads that started and never exited.
			continue
		}
		if st.started && !st.exited {
			v.errf("thread %d started but never exited", id)
		}
		for m := range st.pendingAcquire {
			v.errf("thread %d has unresolved acquire of %q", id, tr.ObjName(m))
		}
		for c := range st.pendingSend {
			v.errf("thread %d has unresolved send on %q", id, tr.ObjName(c))
		}
		for c := range st.pendingRecv {
			v.errf("thread %d has unresolved recv on %q", id, tr.ObjName(c))
		}
	}
}

// ErrEmptyTrace is returned by analyses on traces with no events.
var ErrEmptyTrace = errors.New("trace: empty trace")
