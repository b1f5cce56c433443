package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles the tail metric may report, highest
// first: the conventional reporting percentiles. The tail is the highest
// rung that still has at least minBeyond samples strictly beyond it, so it
// never rests on a handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	// The epsilon keeps exact products such as 99.9% of 10000 from
	// rounding up past their true rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile applies the tail rule to sorted samples and returns the
// value, the percentile chosen and the number of samples beyond it. With
// fewer than 2×minBeyond samples no rung qualifies; the median is returned
// and beyond tells the reader how thin it is.
func tailPercentile(sorted []float64) (value, p float64, beyond int) {
	n := len(sorted)
	for _, q := range tailLadder {
		if b := n - rank(q, n); b >= minBeyond {
			return percentile(sorted, q), q, b
		}
	}
	return percentile(sorted, 50), 50, n - rank(50, n)
}

// median returns the median of xs (mean of the middle pair for even
// counts) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// usage is one getrusage(RUSAGE_SELF) reading.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // kilobytes (Linux)
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: int64(ru.Maxrss)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readHWM returns the process's peak resident set size in kB since start
// or the last resetHWM (VmHWM in /proc/self/status), or -1 when the
// kernel does not report it.
func readHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return -1
			}
			kb, err := strconv.ParseInt(string(f[0]), 10, 64)
			if err != nil {
				return -1
			}
			return kb
		}
	}
	return -1
}

// resetHWM restarts the peak resident set at the current resident set
// (Linux clear_refs code 5), so each block of a run reports its own peak.
// It reports whether the kernel accepted the reset.
func resetHWM() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("5"))
	cerr := f.Close()
	return werr == nil && cerr == nil
}
