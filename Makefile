# Developer entry points. `make ci` is what a gate should run: static
# lock-hazard lint (go vet + a clalint self-run over the repo itself),
# gofmt cleanliness, build, race-enabled tests, a fuzz smoke pass over
# every fuzz target, the differential against the naive reference
# analysis, the serving-path golden smoke, and one pass of the headline benchmark
# (benchtime=1x — for real numbers use `make bench`).

GO ?= go

# Seconds per fuzz target in fuzz-smoke. 30s each keeps a CI run under
# three minutes while still exercising the mutation engine beyond the
# seed corpus.
FUZZTIME ?= 30s

.PHONY: all build vet test race lint fuzz-smoke stream-diff serve-smoke hazard-smoke fmt-check clrt-arch bench bench-smoke bench-clrt bench-stream instr-smoke docs-check guide ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static lock-hazard analysis: go vet plus a clalint self-run over the
# whole tree (testdata corpora are pruned by the pattern walker). The
# self-run must stay clean — fix findings or add a justified
# `//lint:ignore <check> <reason>`.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/clalint ./...

# Short mutation run of every fuzz target: the segment frame/footer
# decoders and manifest reader (hostile bytes must error, never panic),
# the trace codec, trace.Validate, and the analysis itself (unvalidated
# event soups through the in-memory and segmented sources, which must
# agree with each other and, on well-formed traces, with the naive
# reference). Go allows one fuzz target per
# `go test -fuzz` invocation, so they run back to back.
fuzz-smoke:
	$(GO) test ./internal/segment -run '^$$' -fuzz FuzzSegmentFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segment -run '^$$' -fuzz FuzzManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadBinary -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzValidate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzAnalyze -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lint -run '^$$' -fuzz FuzzLint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hazard -run '^$$' -fuzz FuzzHazard -fuzztime $(FUZZTIME)

# Differential oracle: Analyze over in-memory traces and AnalyzeStream
# over segmented + spilled traces, at every window and parallelism,
# must match the naive reference analysis (internal/core/naive) on the
# registered workloads and random synth programs, under the race
# detector.
stream-diff:
	$(GO) test -race ./internal/core -run 'TestAnalyzeStream|TestReference' -count=1 -v

# Serving-path smoke: spin up the analysis server in-process, POST the
# checked-in synth workload and byte-diff the JSON report against its
# golden (testdata/smoke_report.golden), plus the source-level
# differential oracle behind the unified Analyze API. Refresh the
# golden with UPDATE_SERVE_GOLDEN=1 after an intended change.
serve-smoke:
	$(GO) test ./internal/serve -run 'TestServeSmokeGolden|TestSegdirMatchesUpload' -count=1 -v
	$(GO) test . -run TestAnalyzeSourcesAgree -count=1

# Hazard-prediction smoke: the planted deadlock and lost-signal
# workloads must light up (with the cross-thread witness), every clean
# workload must report zero hazards, and the streaming pass must be
# bit-identical to the in-memory one at every tested segmentation and
# worker count.
hazard-smoke:
	$(GO) test ./internal/hazard -run 'TestDeadlockProne|TestLostSignalPlanted|TestCleanWorkloadsNoHazards|TestStreamMatchesInMemory' -count=1 -v
	$(GO) test ./internal/lint -run TestCrossReferenceHazards -count=1

# Gofmt cleanliness — the build stays formatter-neutral.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# clrt reads goroutine ids through an assembly getg stub on amd64 and
# arm64 and falls back to parsing runtime.Stack elsewhere: build the
# fallback on a stub-less GOARCH and vet the arm64 stub against its Go
# declaration, whatever the host architecture.
clrt-arch:
	GOARCH=386 $(GO) build ./clrt
	GOARCH=arm64 $(GO) vet ./clrt

# One iteration of the headline benchmarks and of the clrt per-op
# benchmarks — catches crashes and gross regressions without tying up
# CI.
bench-smoke:
	$(GO) test -run=xxx -bench='BenchmarkAnalyzeLargeTrace|BenchmarkAnalyzeStream2M' -benchtime=1x -benchmem .
	$(GO) test -run=xxx -bench=. -benchtime=1x -benchmem ./clrt

# Per-operation cost of traced Lock+Unlock, RLock+RUnlock, chan
# send+recv, WaitGroup Add/Done/Wait, traced spawn+join and the two
# goroutine-id paths. A fixed iteration count keeps runs comparable;
# the benchmarks restart their recording every 1024 ops, so memory
# stays flat.
bench-clrt:
	$(GO) test -run=xxx -bench=. -benchtime=200000x -count=5 -benchmem ./clrt

# Re-record the streaming-throughput benchmark: runs
# BenchmarkAnalyzeStream2M (stream + in-memory) COUNT times and emits
# the BENCH_PR8.json record from the parsed output (best run per
# sub-benchmark), so the quoted numbers are reproducible rather than
# hand-typed. Takes ~COUNT x 2 minutes on the reference 1-core vCPU.
bench-stream:
	./scripts/bench_stream_json.sh > BENCH_PR8.json
	@cat BENCH_PR8.json

# End-to-end instrumenter smoke: instrument examples/instr (an
# ordinary sync+chan program with a planted hot lock), run the copy,
# analyze its trace, and assert the planted lock tops the report —
# plus the golden pin of the rewrite rules (refresh an intended
# rewrite change with `go test ./internal/instr -update`).
instr-smoke:
	$(GO) test ./internal/instr -run 'TestInstrumentExampleEndToEnd|TestGoldenTarget' -count=1 -v

# Docs freshness: re-run the guide's pipeline and fail when the
# committed docs/GUIDE.md transcripts drifted (numbers normalized).
# Regenerate with `make guide`.
docs-check:
	./scripts/guide.sh check

guide:
	./scripts/guide.sh gen

# Stable numbers for the benchmarks quoted in README/BENCH_PR*.json.
bench:
	$(GO) test -run=xxx -bench='BenchmarkAnalyzeLargeTrace|BenchmarkMergeVsSort|BenchmarkRunAllParallel' -benchtime=30x -benchmem .
	$(GO) test -run=xxx -bench=BenchmarkAnalyzeStream2M -benchtime=2x -benchmem .

ci: lint fmt-check clrt-arch build race stream-diff serve-smoke hazard-smoke fuzz-smoke bench-smoke instr-smoke docs-check
