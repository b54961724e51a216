// Command benchtarget is the program the clrt-traced benchmark
// workload runs twice per job: once as built, and once instrumented by
// clainstr so every synchronization call lands on the clrt tracing
// runtime. It is ordinary Go — sync primitives, channels and go
// statements, no critlock imports.
//
// A producer feeds item indices through a buffered channel to one
// worker per CPU. Each item gets real compute outside any lock, then a
// short critical section on hotMu, the planted hot lock; every fourth
// item also reads cfgMu's configuration, and every 64th spawns a
// helper goroutine. The checksum is order-independent, so every
// schedule of the same seed gives the same one; the program exits 1
// when its check fails.
//
//	benchtarget -seed 1 -items 10000 [-span] [-verify]
//
// It prints one line of key=value pairs: body_start_ns and body_end_ns
// (wall clock around the body), ops (synchronization calls made),
// checksum and check. The check always covers the run's invariants;
// -verify adds the sequential recomputation. With -span it first times
// batches of single operations and adds their average cost in
// nanoseconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

var (
	// hotMu guards the shared histogram and running total: every item
	// passes through it.
	hotMu sync.Mutex
	hist  [256]uint64
	total uint64
	scan  uint64

	// cfgMu guards the read-mostly scale factor.
	cfgMu sync.RWMutex
	scale uint64 = 3

	// auxMu guards the helpers' total and count.
	auxMu    sync.Mutex
	auxTotal uint64
	auxCount int
)

// item is the seeded input of item i.
func item(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// work is the per-item compute done outside any lock. It fills a small
// table from the item, sorts it and folds it through a map, so it
// allocates and touches memory the way ordinary application code does
// (and slows down with the machine the way the traced runtime does).
func work(v uint64) uint64 {
	xs := make([]uint64, 256)
	for i := range xs {
		v = v*6364136223846793005 + 1442695040888963407
		xs[i] = v ^ v>>29
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	m := make(map[uint64]uint64, 32)
	for i := 0; i+1 < len(xs); i += 8 {
		m[xs[i]&1023] += xs[i+1]
	}
	var h uint64
	for i, x := range xs {
		h = h*31 + x ^ uint64(i)
	}
	for k, x := range m {
		h += k * x // a sum, so map order does not matter
	}
	return h
}

// record is the hot critical section: a histogram update plus a short
// scan of the table.
func record(h uint64) {
	hotMu.Lock()
	defer hotMu.Unlock()
	hist[h&255]++
	total += h & 0xffffff
	s := scan
	for i := uint64(0); i < 64; i++ {
		s = s*31 + hist[(h+i)&255]
	}
	scan = s
}

func readScale() uint64 {
	cfgMu.RLock()
	defer cfgMu.RUnlock()
	return scale
}

func helper(h uint64, done *sync.WaitGroup) {
	defer done.Done()
	v := work(h) & 0xff
	auxMu.Lock()
	auxTotal += v
	auxCount++
	auxMu.Unlock()
}

// contribution is item i's share of the checksum before record.
func contribution(seed uint64, i int, s uint64) uint64 {
	h := work(item(seed, i))
	if i%4 == 0 {
		h *= s
	}
	return h
}

// selfCheck checks the run's invariants: every item reached the
// histogram and every helper ran.
func selfCheck(items int) string {
	var n uint64
	for _, c := range hist {
		n += c
	}
	if n != uint64(items) || auxCount != (items+63)/64 {
		return fmt.Sprintf("lost-work(items=%d,helpers=%d)", n, auxCount)
	}
	return "ok"
}

// expected recomputes the checksum sequentially, with no goroutines.
func expected(seed uint64, items int) uint64 {
	var h [256]uint64
	var sum, aux uint64
	for i := 0; i < items; i++ {
		v := contribution(seed, i, scale)
		h[v&255]++
		sum += v & 0xffffff
		if i%64 == 0 {
			aux += work(v) & 0xff
		}
	}
	return checksum(h, sum, aux)
}

func checksum(h [256]uint64, sum, aux uint64) uint64 {
	for _, c := range h {
		sum += c * c
	}
	return sum + aux
}

// syncOps is the number of synchronization calls run makes.
func syncOps(items, workers int) int {
	perItem := 4 // send, receive, Lock, Unlock
	return items*perItem + 2*((items+3)/4) + 5*((items+63)/64) +
		6*workers + // Add, go, closed receive, helpers.Wait, Done, results send
		2 + // producer go, close
		1 + workers // Wait, results receive
}

// run processes items on workers goroutines.
func run(seed uint64, items, workers int) {
	jobs := make(chan int, 64)
	results := make(chan bool, workers)
	var wg sync.WaitGroup
	go func() {
		for i := 0; i < items; i++ {
			jobs <- i
		}
		close(jobs)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var helpers sync.WaitGroup
			for i := range jobs {
				s := uint64(1)
				if i%4 == 0 {
					s = readScale()
				}
				h := contribution(seed, i, s)
				record(h)
				if i%64 == 0 {
					helpers.Add(1)
					go helper(h, &helpers)
				}
			}
			helpers.Wait()
			results <- true
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		<-results
	}
}

// batches times batchOps single operations of each kind and returns
// their average costs as key=value pairs, and the number of
// synchronization calls made.
func batches() (string, int) {
	const batchOps = 2000
	per := func(start time.Time) int64 { return time.Since(start).Nanoseconds() / batchOps }

	var mu sync.Mutex
	start := time.Now()
	for i := 0; i < batchOps; i++ {
		mu.Lock()
		mu.Unlock()
	}
	lock := per(start)

	var rw sync.RWMutex
	start = time.Now()
	for i := 0; i < batchOps; i++ {
		rw.RLock()
		rw.RUnlock()
	}
	rlock := per(start)

	ch := make(chan int, 1)
	start = time.Now()
	for i := 0; i < batchOps; i++ {
		ch <- i
		<-ch
	}
	sendRecv := per(start)

	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < batchOps; i++ {
		wg.Add(1)
		go wg.Done()
		wg.Wait()
	}
	spawn := per(start)

	start = time.Now()
	for i := 0; i < batchOps; i++ {
		wg.Add(1)
		wg.Done()
		wg.Wait()
	}
	wgOps := per(start)

	return fmt.Sprintf(" lock_unlock_ns=%d rlock_runlock_ns=%d chan_sendrecv_ns=%d go_spawn_ns=%d wg_ns=%d",
		lock, rlock, sendRecv, spawn, wgOps), batchOps * (2 + 2 + 2 + 4 + 3)
}

func main() {
	seed := flag.Uint64("seed", 1, "item seed")
	items := flag.Int("items", 10000, "items to process")
	span := flag.Bool("span", false, "time batches of single operations first")
	verify := flag.Bool("verify", false, "also recompute the checksum sequentially")
	flag.Parse()
	workers := runtime.NumCPU()
	start := time.Now()
	var spans string
	ops := syncOps(*items, workers)
	if *span {
		var n int
		spans, n = batches()
		ops += n
	}
	run(*seed, *items, workers)
	got := checksum(hist, total, auxTotal)
	check := selfCheck(*items)
	if *verify && check == "ok" {
		if want := expected(*seed, *items); got != want {
			check = fmt.Sprintf("mismatch(want=%d)", want)
		}
	}
	end := time.Now()
	fmt.Printf("body_start_ns=%d body_end_ns=%d ops=%d checksum=%d check=%s%s\n",
		start.UnixNano(), end.UnixNano(), ops, got, check, spans)
	if check != "ok" {
		os.Exit(1)
	}
}
