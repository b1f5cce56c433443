package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opFunc performs one closed-loop op and checks its output. rec and parent
// are the trace context (a nil rec means untraced); a returned error counts
// the op as failed.
type opFunc func(rec *Recorder, parent int, op int64) error

// plan is one workload's prepared run: a fixed, seeded op list per client,
// made of blocks of equal work.
type plan struct {
	name    string
	clients [][]opFunc
	block   int // ops per block, per client
	digest  string
	close   func()
}

func (p *plan) ops() int {
	n := 0
	for _, c := range p.clients {
		n += len(c)
	}
	return n
}

// loopResult is what one pass over a plan measured.
type loopResult struct {
	lat    []float64 // per-op wall time in ms, all clients, sorted
	failed int
	errs   []error // the first few failures, for the log
	// Per-window medians. A window is one block of client 0's op list;
	// ops of every client completing inside it count toward it.
	opsPerS, cpuPerOp, peakKB float64
	windowRates               []float64
	tail                      sliceTail
}

// failures collects op errors from concurrent clients.
type failures struct {
	mu   sync.Mutex
	n    int
	errs []error
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.errs) < 5 {
		f.errs = append(f.errs, err)
	}
}

// opID numbers op j of client c uniquely within a run.
func opID(c, j int) int64 { return int64(c)<<32 | int64(j) }

// mark is the state at the end of one window.
type mark struct {
	at   time.Duration // since the pass started
	cpu  time.Duration // process CPU since the pass started
	peak int64         // peak RSS in kB during the window, -1 if unknown
}

// runLoop runs every client's op list once, untraced, each client a
// closed loop on its own goroutine. Besides per-op latencies it cuts the
// pass into windows at client 0's block boundaries and reports the median
// window's throughput, CPU per op and peak resident memory, so a burst of
// host contention moves at most a few windows, not the figure. The heap is
// collected first so set-up garbage is not billed to the timed phase.
func runLoop(p *plan) loopResult {
	runtime.GC()
	perWindowPeak := resetHWM()
	var fails failures
	lats := make([][]float64, len(p.clients))
	done := make([][]time.Duration, len(p.clients))
	var marks []mark
	t0, u0 := time.Now(), readUsage()
	var wg sync.WaitGroup
	for c, ops := range p.clients {
		wg.Add(1)
		go func(c int, ops []opFunc) {
			defer wg.Done()
			l := make([]float64, 0, len(ops))
			d := make([]time.Duration, 0, len(ops))
			for j, op := range ops {
				s := time.Now()
				if err := op(nil, 0, opID(c, j)); err != nil {
					fails.add(err)
				}
				e := time.Now()
				l = append(l, ms(e.Sub(s)))
				d = append(d, e.Sub(t0))
				if c == 0 && (j+1)%p.block == 0 {
					m := mark{at: e.Sub(t0), cpu: readUsage().cpu - u0.cpu, peak: -1}
					if perWindowPeak {
						m.peak = readHWM()
						resetHWM()
					}
					marks = append(marks, m)
				}
			}
			lats[c], done[c] = l, d
		}(c, ops)
	}
	wg.Wait()
	res := loopResult{failed: fails.n, errs: fails.errs, tail: slicedTail(done, lats)}
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	sort.Float64s(res.lat)

	var rates, cpus, peaks []float64
	var prev mark
	for _, m := range marks {
		n := 0
		for _, d := range done {
			for _, t := range d {
				if t > prev.at && t <= m.at {
					n++
				}
			}
		}
		if n > 0 {
			rates = append(rates, float64(n)/(m.at-prev.at).Seconds())
			cpus = append(cpus, ms(m.cpu-prev.cpu)/float64(n))
		}
		if m.peak > 0 {
			peaks = append(peaks, float64(m.peak))
		}
		prev = m
	}
	res.opsPerS, res.cpuPerOp, res.windowRates = median(rates), median(cpus), rates
	if len(peaks) > 0 {
		res.peakKB = median(peaks)
	} else {
		res.peakKB = float64(readUsage().maxRSS)
	}
	return res
}

// pairResult is the traced-versus-untraced comparison of one pass.
type pairResult struct {
	traced, untraced time.Duration
	attempted        int
	failed           int
	errs             []error
	spans            []Span
}

// runPairs runs the first half of every client's op list twice per op,
// once traced and once untraced, alternating which goes first, so both
// arms see the same inputs in the same cache state. The summed wall times
// give the tracing overhead; the traced arm's spans are returned.
func runPairs(p *plan, epoch time.Time) pairResult {
	runtime.GC()
	var fails failures
	recs := make([]*Recorder, len(p.clients))
	sums := make([][2]time.Duration, len(p.clients))
	counts := make([]int, len(p.clients))
	var wg sync.WaitGroup
	for c, ops := range p.clients {
		recs[c] = newRecorder(epoch, c<<24)
		wg.Add(1)
		go func(c int, ops []opFunc) {
			defer wg.Done()
			rec := recs[c]
			for j, op := range ops[:(len(ops)+1)/2] {
				id := opID(c, j)
				for k := 0; k < 2; k++ {
					arm := (j + k) % 2 // 0 traced, 1 untraced
					s := time.Now()
					var err error
					if arm == 0 {
						root := rec.Start(0, id, "op."+p.name)
						err = op(rec, root, id)
						rec.End(root)
					} else {
						err = op(nil, 0, id)
					}
					sums[c][arm] += time.Since(s)
					counts[c]++
					if err != nil {
						fails.add(err)
					}
				}
			}
		}(c, ops)
	}
	wg.Wait()
	res := pairResult{failed: fails.n, errs: fails.errs}
	for c := range p.clients {
		res.traced += sums[c][0]
		res.untraced += sums[c][1]
		res.attempted += counts[c]
		res.spans = append(res.spans, recs[c].Spans()...)
	}
	return res
}

// tailSliceOps is the least op count of one tail slice: enough for the
// p99 rung to keep 10 samples beyond it.
const tailSliceOps = 1000

// sliceTail is the tail metric of a run and how it was taken.
type sliceTail struct {
	value            float64 // ms
	p                float64 // percentile applied within each slice
	beyond           int     // samples beyond it in the median slice
	perSlice, slices int
}

// slicedTail cuts a run's ops, in completion order, into slices of at
// least tailSliceOps ops — a single slice for shorter runs — applies the
// tail rule within each slice and returns the median slice's tail. A
// burst of host contention inflates the tail of the slice it falls in,
// not the run's figure, just as windows do for throughput.
func slicedTail(done [][]time.Duration, lats [][]float64) sliceTail {
	type sample struct {
		at  time.Duration
		lat float64
	}
	var all []sample
	for c := range done {
		for j, t := range done[c] {
			all = append(all, sample{t, lats[c][j]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	k := max(len(all)/tailSliceOps, 1)
	type cut struct {
		v, p   float64
		beyond int
	}
	cuts := make([]cut, k)
	for i := range cuts {
		part := all[i*len(all)/k : (i+1)*len(all)/k]
		xs := make([]float64, len(part))
		for j, s := range part {
			xs[j] = s.lat
		}
		sort.Float64s(xs)
		v, p, b := tailPercentile(xs)
		cuts[i] = cut{v, p, b}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].v < cuts[j].v })
	m := cuts[(k-1)/2]
	v := m.v
	if k%2 == 0 {
		v = (m.v + cuts[k/2].v) / 2
	}
	return sliceTail{value: v, p: m.p, beyond: m.beyond, perSlice: len(all) / k, slices: k}
}

// warmOps is how many ops of each client's list the warm pass runs for
// the workloads whose ops need no cache filling (vet, pnr).
const warmOps = 4

// warm runs the first warmOps ops of every client once.
func warm(p *plan) error {
	for c, ops := range p.clients {
		for j := 0; j < warmOps && j < len(ops); j++ {
			if err := ops[j](nil, 0, opID(c, j)); err != nil {
				return fmt.Errorf("warm pass: %w", err)
			}
		}
	}
	return nil
}
