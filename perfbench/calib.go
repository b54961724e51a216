package main

import (
	"crypto/sha256"
	"encoding/json"
	"sort"
	"time"
)

// calibrate times a fixed piece of work that uses no critlock code — a
// sort, a JSON encoding and a hash, the kinds of work the jobs do —
// and returns its wall time in seconds. The loop runs it next to every
// job, so job times can be read against the machine's speed at that
// moment: on the shared 2-vCPU VM it was tuned on, speed drifts by tens
// of percent from one minute to the next. There, over six minutes of
// alternating calibrations and jobs, scaling by this kernel cut the
// spread of 20-second job medians from 0.12 to 0.05; a variant with a
// 64 MiB random walk tracked the drift no better.
func calibrate() float64 {
	start := time.Now()
	const n = 1 << 18
	xs := make([]uint64, n)
	v := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		v = v*6364136223846793005 + 1442695040888963407
		xs[i] = v ^ v>>29
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	type rec struct {
		Thread int    `json:"thread"`
		From   uint64 `json:"from"`
		To     uint64 `json:"to"`
		Kind   string `json:"kind,omitempty"`
	}
	recs := make([]rec, n/8)
	for i := range recs {
		recs[i] = rec{Thread: i % 16, From: xs[i], To: xs[i+1], Kind: "obtain"}
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		panic(err) // a fixed slice of plain structs always encodes
	}
	calibSink = sha256.Sum256(data)
	return seconds(time.Since(start))
}

// calibSink keeps the calibration's result alive.
var calibSink [32]byte
