// Command perfbench is critlock's benchmark. It runs one workload for
// a fixed time and prints, as the last line of standard output, one
// JSON object with the run's correctness, operation counts and
// metrics:
//
//	bash perfbench/run.sh --workload stream-mix-2m --seed 1 --seconds 10 --trace 0
//
// Run it from the root of a critlock checkout. With --trace 0 it
// reports the end-to-end metrics (tracing off); with --trace 1 it runs
// the span pass instead and reports the per-layer metrics. The
// workloads, metrics and the layer → end-to-end map are described in
// perfbench/NOTES.md; BENCHMARK.json at the repository root lists the
// same names and units.
//
// Process layout: the benchmark sets each workload up several times in
// child processes (setup_s is their median wall time), then runs the
// closed loop — one job at a time — in one more child whose peak RSS
// is the run's peak_rss_bytes. Every child runs with GOMAXPROCS set to
// the machine's CPU count and keeps its files under
// .bench_build/work in the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// e2eMetrics are printed with --trace 0, in this order.
var e2eMetrics = []metricDef{
	{"job_s", "s"},
	{"events_per_s", "1/s"},
	{"disk_bytes_per_s", "B/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_bytes", "bytes"},
	{"slowdown_x", "x"},
	{"setup_s", "s"},
}

// layerMetrics are printed with --trace 1, in this order. A layer a
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"segment.open_s", "s"},
	{"segment.decode_s", "s"},
	{"core.pass1_s", "s"},
	{"core.walk_s", "s"},
	{"core.pass3_s", "s"},
	{"core.segment_loads", "count"},
	{"core.loads_per_segment", "ratio"},
	{"core.bytes_spilled", "bytes"},
	{"hazard.fold_s", "s"},
	{"report.build_s", "s"},
	{"report.write_s", "s"},
	{"report.json_bytes", "bytes"},
	{"trace.decode_s", "s"},
	{"core.validate_s", "s"},
	{"core.index_s", "s"},
	{"core.metrics_s", "s"},
	{"clrt.lock_unlock_ns", "ns"},
	{"clrt.rlock_runlock_ns", "ns"},
	{"clrt.chan_sendrecv_ns", "ns"},
	{"clrt.go_spawn_ns", "ns"},
	{"clrt.wg_ns", "ns"},
	{"native.lock_unlock_ns", "ns"},
	{"clrt.flush_s", "s"},
	{"clrt.events", "count"},
	{"clrt.events_per_op", "ratio"},
	{"segment.write_bytes", "bytes"},
	{"segment.bytes_per_event", "bytes/event"},
	{"instr.rewrite_s", "s"},
	{"instr.build_s", "s"},
	{"bench.span_job_s", "s"},
	{"bench.unaccounted_s", "s"},
	{"bench.span_overhead", "x"},
}

// resultCounts are printed with --trace 1 after layerMetrics but left
// out of the result line: they are properties of the analysis result,
// which a faster layer must not change, so neither direction is better.
var resultCounts = []metricDef{
	{"core.cp_pieces", "count"},
	{"core.cp_jumps", "count"},
	{"hazard.findings", "count"},
}

// inputInfo describes one generated input for provenance.
type inputInfo struct {
	Name     string `json:"name"`
	Digest   string `json:"digest"`
	Events   int64  `json:"events"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
}

// setupResult is what a set-up child leaves for the jobs child and
// the parent.
type setupResult struct {
	Inputs []inputInfo        `json:"inputs"`
	Stream *streamRef         `json:"stream,omitempty"`
	Models []modelRef         `json:"models,omitempty"`
	Clrt   *clrtRef           `json:"clrt,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// jobRecord is one untraced job as measured.
type jobRecord struct {
	Wall    float64   `json:"wall"`             // wall time, s
	Calib   float64   `json:"calib"`            // calibration time around it, s
	Latency []float64 `json:"latency"`          // per-item wall times, s
	Events  int64     `json:"events"`           // events processed or recorded
	Bytes   int64     `json:"bytes"`            // on-disk bytes read or written
	PeakRSS int64     `json:"peak_rss"`         // peak RSS of the process running it
	Native  float64   `json:"native,omitempty"` // the native twin's wall time (clrt-traced)
}

// jobsResult is what the jobs child reports.
type jobsResult struct {
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Jobs      []jobRecord `json:"jobs"`
	// SpanJobs and Layers are the span pass's job wall times and
	// per-layer samples.
	SpanJobs []float64            `json:"span_jobs,omitempty"`
	Layers   map[string][]float64 `json:"layers,omitempty"`
	Inputs   []inputInfo          `json:"inputs,omitempty"`
}

// env is one run's fixed context.
type env struct {
	root string // checkout root
	dir  string // the workload's work directory
	seed int64
	tiny bool
}

func main() {
	if os.Getenv(childEnvVar) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stderr))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childEnvVar marks a process as one of the benchmark's own children.
const childEnvVar = "PERFBENCH_CHILD"

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	size     string
}

func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds the closed loop measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: span pass, per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "input size: full, or tiny for the benchmark's own tests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown --workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if o.size != "full" && o.size != "tiny" {
		return o, fmt.Errorf("--size must be full or tiny")
	}
	return o, nil
}

// checkoutRoot returns the working directory if it is the root of a
// critlock checkout.
func checkoutRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(data), "module critlock\n") {
		return "", fmt.Errorf("%s is not the root of a critlock checkout (no go.mod for module critlock)", root)
	}
	for _, need := range []string{"clrt", "internal", filepath.Join("perfbench", "target")} {
		if st, err := os.Stat(filepath.Join(root, need)); err != nil || !st.IsDir() {
			return "", fmt.Errorf("%s is not the root of a critlock checkout (no %s/)", root, need)
		}
	}
	return root, nil
}

// parentMain runs one benchmark invocation and returns its exit code.
func parentMain(args []string, out, errOut io.Writer) int {
	o, err := parseFlags(args, errOut)
	if err == nil {
		err = run(o, out, errOut)
	}
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	return 0
}

// run sets up, runs the closed loop and prints the report.
func run(o options, out, errOut io.Writer) error {
	root, err := checkoutRoot()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "work", o.workload)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return err
	}
	// Set-up runs three times so setup_s is a median; the span pass
	// reports no setup_s and needs one.
	setupRuns := 3
	if o.trace == 1 {
		setupRuns = 1
	}
	common := []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--dir", dir, "--size", o.size}
	env := childEnv(filepath.Join(dir, "tmp"), childEnvVar+"=1")

	// Each set-up is timed between two calibrations, like the jobs.
	var setups []jobRecord
	var ref setupResult
	var digests []string
	cal := calibrate()
	for i := 0; i < setupRuns; i++ {
		cr, err := runChild(root, env, errOut, exe, append([]string{"setup"}, common...)...)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		next := calibrate()
		setups = append(setups, jobRecord{Wall: seconds(cr.Wall), Calib: (cal + next) / 2})
		cal = next
		if err := readJSON(filepath.Join(dir, "setup.json"), &ref); err != nil {
			return err
		}
		digests = append(digests, inputsDigest(ref.Inputs))
	}

	jobsArgs := append([]string{"jobs"}, common...)
	jobsArgs = append(jobsArgs, "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace))
	cr, err := runChild(root, env, errOut, exe, jobsArgs...)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var res jobsResult
	if err := readJSON(filepath.Join(dir, "jobs.json"), &res); err != nil {
		return err
	}
	// The same seed must give the same inputs on every set-up.
	for i, d := range digests {
		res.Attempted++
		if d != digests[0] {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("set-up %d produced inputs %s, set-up 1 %s", i+1, d, digests[0]))
		}
	}
	// Where the job process could not measure each job's peak, the
	// process-wide peak from rusage stands in.
	for i := range res.Jobs {
		if res.Jobs[i].PeakRSS == 0 {
			res.Jobs[i].PeakRSS = cr.PeakRSS
		}
	}

	w, _ := workloadByName(o.workload)
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%d size=%s\n", o.workload, o.seed, o.seconds, o.trace, o.size)
	fmt.Fprintf(out, "why: %s\n", w.why)
	printProvenance(out, root)
	for _, in := range append(ref.Inputs, res.Inputs...) {
		fmt.Fprintf(out, "input %s: digest=%s events=%d segments=%d bytes=%d\n", in.Name, in.Digest, in.Events, in.Segments, in.Bytes)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}

	var names []metricDef
	values := map[string]float64{}
	if o.trace == 0 {
		names = e2eMetrics
		e2eValues(values, res.Jobs, setups)
		printSamples(out, res.Jobs, setups)
		for _, m := range names {
			fmt.Fprintf(out, "metric %s = %.6g %s\n", m.Name, values[m.Name], m.Unit)
		}
		if w.name == clrtTraced.name {
			fmt.Fprintf(out, "metric traced_run_s = %.6g s (job_s of this workload)\n", values["job_s"])
		}
	} else {
		names = layerMetrics
		layerValues(values, &res, ref.Layers)
		fmt.Fprintf(out, "samples: %d span jobs, %d untraced jobs\n", len(res.SpanJobs), len(res.Jobs))
		for _, m := range names {
			fmt.Fprintf(out, "layer %s = %.6g %s\n", m.Name, values[m.Name], m.Unit)
		}
		for _, m := range resultCounts {
			fmt.Fprintf(out, "result %s = %.6g %s\n", m.Name, values[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(out, "metric fail_ratio = %.6g ratio (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metric{}}
	for _, m := range names {
		line.Metrics[m.Name] = metric{values[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	return nil
}

// calibRefS is the reference machine speed: the time calibrate takes
// on it. Every end-to-end time is reported at that speed — its wall
// time scaled by calibRefS over the calibration measured around it —
// so that the host's drift from minute to minute cancels out.
const calibRefS = 0.1

// atRef scales a wall time measured next to calibration time cal to
// the reference speed.
func atRef(wall, cal float64) float64 { return wall * calibRefS / cal }

// e2eValues derives the end-to-end metrics from a tracing-off run.
func e2eValues(v map[string]float64, jobs, setups []jobRecord) {
	var wall, evRate, byteRate, lat, rss, slow, setup []float64
	for _, j := range jobs {
		t := atRef(j.Wall, j.Calib)
		wall = append(wall, t)
		evRate = append(evRate, float64(j.Events)/t)
		byteRate = append(byteRate, float64(j.Bytes)/t)
		for _, l := range j.Latency {
			lat = append(lat, atRef(l, j.Calib))
		}
		rss = append(rss, float64(j.PeakRSS))
		if j.Native > 0 {
			slow = append(slow, j.Wall/j.Native)
		}
	}
	for _, s := range setups {
		setup = append(setup, atRef(s.Wall, s.Calib))
	}
	v["job_s"] = median(wall)
	v["events_per_s"] = median(evRate)
	v["disk_bytes_per_s"] = median(byteRate)
	v["latency_p50_ms"] = 1e3 * quantile(lat, 0.5)
	v["latency_p90_ms"] = 1e3 * quantile(lat, 0.9)
	v["peak_rss_bytes"] = median(rss)
	// Only clrt-traced runs a traced program next to its native twin;
	// the analysis workloads trace nothing, so nothing slows: 1.
	v["slowdown_x"] = 1
	if len(slow) > 0 {
		v["slowdown_x"] = median(slow)
	}
	v["setup_s"] = median(setup)
}

// printSamples prints the raw measurements behind the end-to-end
// metrics: wall times as measured and the calibration next to each.
func printSamples(out io.Writer, jobs, setups []jobRecord) {
	var wall, cal, native, rss, swall, scal []float64
	items := 0
	for _, j := range jobs {
		wall, cal = append(wall, j.Wall), append(cal, j.Calib)
		rss = append(rss, float64(j.PeakRSS)/(1<<20))
		items += len(j.Latency)
		if j.Native > 0 {
			native = append(native, j.Native)
		}
	}
	for _, s := range setups {
		swall, scal = append(swall, s.Wall), append(scal, s.Calib)
	}
	fmt.Fprintf(out, "samples: %d jobs, %d item latencies, %d set-ups; times below are wall seconds as measured\n", len(jobs), items, len(setups))
	fmt.Fprintf(out, "job wall: median %.4g of %.4g\n", median(wall), wall)
	fmt.Fprintf(out, "job calibration: median %.4g of %.4g (reference %g)\n", median(cal), cal, calibRefS)
	if len(native) > 0 {
		fmt.Fprintf(out, "native wall: median %.4g of %.4g\n", median(native), native)
	}
	fmt.Fprintf(out, "job peak RSS: median %.4g MiB of %.4g\n", median(rss), rss)
	fmt.Fprintf(out, "set-up wall: median %.4g of %.4g, calibration %.4g\n", median(swall), swall, scal)
}

// layerValues derives the per-layer metrics from a span run: the
// median of each layer's per-job samples, the set-up layers, and the
// span pass's own overhead against the untraced jobs it alternated
// with. Layer times are wall times as measured.
func layerValues(v map[string]float64, res *jobsResult, setupLayers map[string]float64) {
	for name, xs := range res.Layers {
		v[name] = median(xs)
	}
	for name, x := range setupLayers {
		v[name] = x
	}
	var wall []float64
	for _, j := range res.Jobs {
		wall = append(wall, j.Wall)
	}
	v["bench.span_job_s"] = median(res.SpanJobs)
	if j := median(wall); j > 0 {
		v["bench.span_overhead"] = median(res.SpanJobs) / j
	}
}

// inputsDigest folds every input digest into one string.
func inputsDigest(ins []inputInfo) string {
	var b strings.Builder
	for _, in := range ins {
		fmt.Fprintf(&b, "%s=%s;", in.Name, in.Digest)
	}
	return b.String()
}

// printProvenance prints the machine, toolchain, source and command
// line the numbers came from.
func printProvenance(out io.Writer, root string) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(val)
				break
			}
		}
	}
	fmt.Fprintf(out, "machine: cpu=%q nproc=%d gomaxprocs=%d os=%s/%s\n", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "go: %s\n", runtime.Version())
	fmt.Fprintf(out, "source: commit=%s tree=%s\n", gitCommit(root), sourceDigest(root))
	fmt.Fprintf(out, "command: %s\n", strings.Join(os.Args, " "))
	fmt.Fprintf(out, "time: %s\n", time.Now().UTC().Format(time.RFC3339))
}
