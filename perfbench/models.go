package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"critlock"
	"critlock/internal/hazard"
	"critlock/internal/obs"
	"critlock/internal/report"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

var modelsInmem = workload{
	name: "models-inmem",
	why: "every registered model at 4/8/16/24 threads x 2 seeds, one small .cltr at a time: " +
		"codec, in-memory phases and per-call set-up, no segment decoding",
	setup:   modelsSetup,
	prepare: modelsPrepare,
}

// modelRef is one models-inmem input with its set-up reference.
type modelRef struct {
	File    string `json:"file"`
	Model   string `json:"model"`
	TwoLock bool   `json:"twolock,omitempty"`
	Threads int    `json:"threads"`
	Seed    int64  `json:"seed"`
	Events  int64  `json:"events"`
	Bytes   int64  `json:"bytes"`
	// Digest is the SHA-256 of the reference JSON report; Top the
	// reference's top lock by CP Time %.
	Digest string `json:"digest"`
	Top    string `json:"top"`

	inputDigest string // digest of the .cltr file, for provenance
}

// modelTops are the top locks WORKLOADS.md documents, per model
// variant and thread count; every generated trace they cover must
// rank that lock first.
var modelTops = map[string]map[int]string{
	"radiosity": {24: "tq[0].qlock"},
	"tsp":       {4: "Q.qlock", 8: "Q.qlock", 16: "Q.qlock", 24: "Q.qlock"},
	"raytrace":  {24: "mem"},
	"micro":     {4: "L2"},
}

func modelGrid(tiny bool) []int {
	if tiny {
		return []int{4}
	}
	return []int{4, 8, 16, 24}
}

// modelsSetup simulates every registered model (and its two-lock
// variant, where one exists) at each thread count under two seeds
// derived from the workload seed, writes each trace as a .cltr file
// and computes its reference report.
func modelsSetup(e *env) (*setupResult, error) {
	dir := filepath.Join(e.dir, "models")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &setupResult{}
	for _, name := range workloads.Names() {
		spec, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		variants := []bool{false}
		if spec.SupportsTwoLock {
			variants = append(variants, true)
		}
		for _, twoLock := range variants {
			for _, threads := range modelGrid(e.tiny) {
				for _, seed := range []int64{2 * e.seed, 2*e.seed + 1} {
					m := modelRef{Model: name, TwoLock: twoLock, Threads: threads, Seed: seed}
					if err := modelInput(dir, spec, &m); err != nil {
						return nil, fmt.Errorf("%s: %w", m.File, err)
					}
					res.Models = append(res.Models, m)
					res.Inputs = append(res.Inputs, inputInfo{Name: m.File, Digest: m.inputDigest, Events: m.Events, Bytes: m.Bytes})
				}
			}
		}
	}
	return res, nil
}

// modelInput generates one trace file and its reference.
func modelInput(dir string, spec workloads.Spec, m *modelRef) error {
	variant := m.Model
	if m.TwoLock {
		variant += "-twolock"
	}
	m.File = fmt.Sprintf("%s-t%d-s%d.cltr", variant, m.Threads, m.Seed)
	s := sim.New(sim.Config{Contexts: 24, Seed: m.Seed})
	tr, _, err := workloads.Run(s, spec, workloads.Params{Threads: m.Threads, Seed: m.Seed, TwoLock: m.TwoLock})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, m.File)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.Events, m.Bytes = int64(len(tr.Events)), st.Size()
	if m.inputDigest, err = fileDigest(path); err != nil {
		return err
	}
	rep, err := analyzeTrace(tr, m.File, nil, nil)
	if err != nil {
		return err
	}
	if len(rep.Locks) > 0 {
		m.Top = rep.Locks[0].Name
	}
	m.Digest, err = exportDigest(rep)
	return err
}

// checkModelTop checks m's top lock against modelTops.
func checkModelTop(m *modelRef) error {
	if m.TwoLock {
		return nil
	}
	if want, ok := modelTops[m.Model][m.Threads]; ok && m.Top != want {
		return fmt.Errorf("%s: top lock %q, WORKLOADS.md documents %q", m.File, m.Top, want)
	}
	return nil
}

// analyzeTrace is what `cla -hazards -jsonreport` does with a decoded
// trace file: the in-memory analysis with default options, the hazard
// fold and the export. With layers non-nil it records spans.
func analyzeTrace(tr *trace.Trace, source string, layers map[string]float64, o obs.Observer) (*report.Export, error) {
	var opts []critlock.Option
	if o != nil {
		opts = append(opts, critlock.WithObserver(o))
	}
	an, err := critlock.Analyze(critlock.TraceSource(tr), opts...)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	hz, err := hazard.FromTrace(tr)
	if err != nil {
		return nil, err
	}
	if layers != nil {
		layers["hazard.fold_s"] += seconds(time.Since(t))
		layers["hazard.findings"] += float64(hz.Total())
		layers["core.cp_pieces"] += float64(len(an.CP.Pieces))
		layers["core.cp_jumps"] += float64(an.CP.Jumps)
	}
	t = time.Now()
	rep := report.BuildExport("cla", source, false, an)
	rep.Hazards = hz
	if layers != nil {
		layers["report.build_s"] += seconds(time.Since(t))
	}
	return rep, nil
}

// modelsPrepare returns the models-inmem job: every trace file in
// turn, decoded with trace.ReadBinary, analyzed, hazard-folded and
// exported — one trace at a time. Each report must equal its set-up
// reference byte for byte.
func modelsPrepare(r *runner) (func(span bool) (jobSample, error), error) {
	dir := filepath.Join(r.env.dir, "models")
	out := filepath.Join(r.env.dir, "report.json")
	var events, bytes int64
	for _, m := range r.ref.Models {
		events += m.Events
		bytes += m.Bytes
	}
	return func(span bool) (jobSample, error) {
		s := jobSample{jobRecord: jobRecord{Events: events, Bytes: bytes}}
		var layers map[string]float64
		var observer obs.Observer
		if span {
			layers = map[string]float64{}
			observer = obs.Funcs{Done: func(phase string, d time.Duration) { layers["core."+phase+"_s"] += d.Seconds() }}
		}
		for i := range r.ref.Models {
			m := &r.ref.Models[i]
			t0 := time.Now()
			err := modelJob(filepath.Join(dir, m.File), out, m.File, layers, observer)
			lat := seconds(time.Since(t0))
			// The job's time is its traces' times: the check and the
			// removal below stay outside it, as on stream-mix.
			s.Latency = append(s.Latency, lat)
			s.Wall += lat
			if err == nil {
				err = checkModelOutput(out, m)
			}
			r.op(err)
			// A fresh file per trace: rewriting a truncated file makes
			// ext4 start writeback on close, which lands in later jobs.
			if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
				return s, err
			}
		}
		if span {
			var named float64
			for _, k := range []string{"trace.decode_s", "core.validate_s", "core.index_s", "core.walk_s", "core.metrics_s", "hazard.fold_s", "report.build_s", "report.write_s"} {
				named += layers[k]
			}
			layers["bench.unaccounted_s"] = s.Wall - named
			s.layers = layers
		}
		return s, nil
	}, nil
}

// modelJob runs one trace file to its JSON report.
func modelJob(path, out, source string, layers map[string]float64, o obs.Observer) error {
	t := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := trace.ReadBinary(f)
	f.Close()
	if err != nil {
		return err
	}
	if layers != nil {
		layers["trace.decode_s"] += seconds(time.Since(t))
	}
	rep, err := analyzeTrace(tr, source, layers, o)
	if err != nil {
		return err
	}
	t = time.Now()
	if err := writeExportFile(out, rep); err != nil {
		return err
	}
	if layers != nil {
		layers["report.write_s"] += seconds(time.Since(t))
		if st, err := os.Stat(out); err == nil {
			layers["report.json_bytes"] += float64(st.Size())
		}
	}
	return nil
}

// checkModelOutput compares a written report with its reference.
func checkModelOutput(out string, m *modelRef) error {
	got, err := fileDigest(out)
	if err != nil {
		return err
	}
	if got != m.Digest {
		return fmt.Errorf("%s: report digest %s, reference %s", m.File, got, m.Digest)
	}
	return checkModelTop(m)
}
