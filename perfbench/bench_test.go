package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary:
// parentMain spawns os.Executable() as its set-up and jobs children.
func TestMain(m *testing.M) {
	if os.Getenv(childEnvVar) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stderr))
	}
	os.Exit(m.Run())
}

// inRoot runs fn with the working directory at the checkout root.
func inRoot(t *testing.T, fn func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestTinyRuns runs every workload at tiny size in both modes: each
// run passes its checks and prints every named metric with its unit,
// on a line of its own and in the result line.
func TestTinyRuns(t *testing.T) {
	for _, w := range benchWorkloads {
		for _, trc := range []int{0, 1} {
			w, trc := w, trc
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trc), func(t *testing.T) {
				var out, errOut bytes.Buffer
				inRoot(t, func() {
					args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", fmt.Sprint(trc), "--size", "tiny"}
					if code := parentMain(args, &out, &errOut); code != 0 {
						t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
					}
				})
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want, prefix := e2eMetrics, "metric "
				if trc == 1 {
					want, prefix = layerMetrics, "layer "
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("result metric %s: %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(out.String(), prefix+m.Name+" = ") {
						t.Errorf("no %q line", prefix+m.Name)
					}
				}
				if trc == 1 {
					for _, m := range resultCounts {
						if _, ok := res.Metrics[m.Name]; ok || !strings.Contains(out.String(), "result "+m.Name+" = ") {
							t.Errorf("%s: want a \"result\" line and no result-line metric", m.Name)
						}
					}
				}
				if trc == 0 {
					for _, name := range []string{"job_s", "setup_s", "peak_rss_bytes", "events_per_s"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
					if !strings.Contains(out.String(), "metric fail_ratio = 0 ") {
						t.Errorf("no zero fail_ratio line\n%s", out.String())
					}
				}
			})
		}
	}
}

// TestSeedDigests checks that every generator is driven by the seed:
// the same seed gives the same input digests, another seed different
// ones.
func TestSeedDigests(t *testing.T) {
	inRoot(t, func() {
		root, err := checkoutRoot()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range benchWorkloads {
			digest := func(seed int64) string {
				e := &env{root: root, dir: t.TempDir(), seed: seed, tiny: true}
				if err := os.MkdirAll(filepath.Join(e.dir, "tmp"), 0o755); err != nil {
					t.Fatal(err)
				}
				ref, err := w.setup(e)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				return inputsDigest(ref.Inputs)
			}
			a, b, c := digest(5), digest(5), digest(6)
			if a != b {
				t.Errorf("%s: seed 5 gave two different input sets", w.name)
			}
			if a == c {
				t.Errorf("%s: seeds 5 and 6 gave the same inputs", w.name)
			}
		}
	})
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program runs and prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, printed %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
