package core_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"critlock/internal/core"
	"critlock/internal/core/naive"
	"critlock/internal/trace"
)

// fuzzEventSize is the encoded size of one fuzz event: thread, kind,
// object and argument as one signed or unsigned byte each, then the
// time delta to the previous event as a little-endian uint16.
const fuzzEventSize = 6

// decodeFuzzTrace builds a trace from fuzz bytes: a thread count, an
// object count, one kind/capacity byte per object, then events. Ids
// may fall outside the skeleton and events may come in any kind order;
// times never decrease.
func decodeFuzzTrace(data []byte) *trace.Trace {
	if len(data) < 2 {
		return nil
	}
	tr := &trace.Trace{Meta: map[string]string{}}
	for i := 0; i < 1+int(data[0]%8); i++ {
		tr.Threads = append(tr.Threads, trace.ThreadInfo{ID: trace.ThreadID(i), Name: fmt.Sprintf("t%d", i), Creator: trace.NoThread})
	}
	nObjs := int(data[1] % 8)
	data = data[2:]
	for i := 0; i < nObjs && i < len(data); i++ {
		tr.Objects = append(tr.Objects, trace.ObjectInfo{ID: trace.ObjID(i), Kind: trace.ObjKind(1 + data[i]%4),
			Name: fmt.Sprintf("o%d", i), Parties: int(data[i]>>2) % 4})
	}
	data = data[min(nObjs, len(data)):]
	var tm trace.Time
	for len(data) >= fuzzEventSize && len(tr.Events) < 2000 {
		tm += trace.Time(binary.LittleEndian.Uint16(data[4:6]))
		tr.Events = append(tr.Events, trace.Event{
			T: tm, Seq: uint64(len(tr.Events) + 1),
			Thread: trace.ThreadID(int8(data[0])), Kind: trace.EventKind(data[1]),
			Obj: trace.ObjID(int8(data[2])), Arg: int64(int8(data[3])),
		})
		data = data[fuzzEventSize:]
	}
	return tr
}

// encodeFuzzTrace is decodeFuzzTrace's inverse for small well-formed
// traces (time deltas are clipped to 16 bits).
func encodeFuzzTrace(tr *trace.Trace) []byte {
	out := []byte{byte(len(tr.Threads) - 1), byte(len(tr.Objects))}
	for _, o := range tr.Objects {
		out = append(out, byte(o.Kind-1)|byte(o.Parties)<<2)
	}
	var prev trace.Time
	for _, e := range tr.Events {
		dt := min(e.T-prev, 0xffff)
		prev = e.T
		out = append(out, byte(e.Thread), byte(e.Kind), byte(e.Obj), byte(e.Arg), byte(dt), byte(dt>>8))
	}
	return out
}

// FuzzAnalyze feeds arbitrary event sequences, unvalidated, through
// Analyze and through a segmented copy run with parallel passes.
// Neither may panic; when both succeed they must agree (composition
// included), and when the trace is well formed both must also match
// the naive reference. The seed corpus holds small synth programs.
func FuzzAnalyze(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		cfg := randomSynth(rng)
		cfg.Threads = 2 + i%2
		for p := range cfg.Phases {
			cfg.Phases[p].Iterations = 1 + i%3
		}
		f.Add(encodeFuzzTrace(synthTrace(f, cfg, int64(i))), uint8(1+i%5), uint8(1+i%3))
	}
	f.Add(encodeFuzzTrace(badObjectTrace()), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, seg, par uint8) {
		tr := decodeFuzzTrace(data)
		if tr == nil || len(tr.Events) == 0 {
			return
		}
		opts := core.Options{ClipHold: true}
		mem, memErr := core.Analyze(tr, opts)
		str, strErr := core.AnalyzeStream(splitSource(tr, int(seg)), core.Config{
			Options: opts, CacheSegments: 1 + int(seg%3), ParallelSegments: int(par % 4), Composition: true,
		})
		if memErr != nil || strErr != nil {
			return
		}
		if d := naive.Diff(str, mem); d != "" {
			t.Fatalf("segmented analysis disagrees with Analyze: %s", d)
		}
		if !reflect.DeepEqual(str.Composition(), mem.Composition()) {
			t.Fatalf("segmented composition disagrees with Analyze")
		}
		if trace.Validate(tr) != nil {
			return
		}
		ref, err := naive.Analyze(tr, true)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if d := naive.Diff(mem, ref); d != "" {
			t.Fatalf("Analyze disagrees with the reference: %s", d)
		}
	})
}
