package main

import (
	"testing"
	"time"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{100, 90, 90, 10},    // p95 would leave 5
		{199, 90, 180, 19},   // p95 would leave 9
		{200, 95, 190, 10},   // first size where p95 qualifies
		{999, 95, 950, 49},   // p99 would leave 9
		{1000, 99, 990, 10},  // first size where p99 qualifies
		{9999, 99, 9900, 99}, // p99.9 would leave 9
		{10000, 99.9, 9990, 10},
		{39, 50, 20, 19},
		{40, 75, 30, 10},
		{15, 50, 8, 7}, // too few samples for any rung: the median, flagged by beyond < 10
	}
	for _, c := range cases {
		v, p, b := tailPercentile(ascending(c.n))
		if p != c.p || v != c.value || b != c.beyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond", c.n, p, v, b, c.p, c.value, c.beyond)
		}
	}
	for n := 20; n <= 3000; n++ {
		if _, _, b := tailPercentile(ascending(n)); b < minBeyond {
			t.Fatalf("n=%d: only %d samples beyond the tail", n, b)
		}
	}
}

func TestInputDigestFollowsSeed(t *testing.T) {
	catalogue, err := parseDigests(pnrDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := (pnrCellsHi - pnrCellsLo + 1) * pnrSeeds; len(catalogue) != want {
		t.Fatalf("digest file covers %d designs, want %d", len(catalogue), want)
	}
	digests := func(seed int64) [3]string {
		_, vet, err := genVet(seed, t.TempDir(), 3)
		if err != nil {
			t.Fatal(err)
		}
		_, pnr := pnrDesigns(seed, catalogue, 2)
		_, daemon := daemonBodiesFor(seed)
		return [3]string{vet, pnr, daemon}
	}
	a, b, c := digests(defaultSeed), digests(defaultSeed), digests(heldoutSeed)
	for i, name := range []string{"vet", "pnr", "daemon"} {
		if a[i] != b[i] {
			t.Errorf("%s: same seed gave digests %s and %s", name, a[i], b[i])
		}
		if a[i] == c[i] {
			t.Errorf("%s: seeds %d and %d gave the same digest", name, defaultSeed, heldoutSeed)
		}
	}
}

func TestSpansNestAndSelfTimes(t *testing.T) {
	// A live recorder: children run inside their parents.
	r := newRecorder(time.Now(), 0)
	r.Do(0, 1, "op", func(root int) {
		r.Do(root, 1, "a", func(a int) {
			r.Do(a, 1, "a.inner", func(int) { time.Sleep(time.Millisecond) })
		})
		r.Do(root, 1, "b", func(int) { time.Sleep(time.Millisecond) })
	})
	spans := r.Spans()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d: negative self time %d", id, self)
		}
	}

	// Overlapping children (concurrent work under one parent) are
	// subtracted once, so self time stays non-negative.
	fixed := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "x", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "y", Start: 40, End: 90},
		{ID: 4, Parent: 2, Name: "x.inner", Start: 20, End: 30},
	}
	if err := checkNesting(fixed); err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{1: 20, 2: 40, 3: 50, 4: 10}
	got := selfTimes(fixed)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}

	escaped := append(fixed, Span{ID: 5, Parent: 1, Name: "late", Start: 95, End: 120})
	if checkNesting(escaped) == nil {
		t.Error("a child ending after its parent was not reported")
	}
}

func TestSlicedTail(t *testing.T) {
	// One client, ops completing 1ms apart, latency 1ms except a burst of
	// 40 slow ops inside the second of three 1000-op slices.
	n := 3000
	done := [][]time.Duration{make([]time.Duration, n)}
	lats := [][]float64{make([]float64, n)}
	for j := 0; j < n; j++ {
		done[0][j] = time.Duration(j+1) * time.Millisecond
		lats[0][j] = 1
		if j >= 1200 && j < 1240 {
			lats[0][j] = 100
		}
	}
	got := slicedTail(done, lats)
	if got.slices != 3 || got.perSlice != 1000 || got.p != 99 || got.value != 1 {
		t.Errorf("burst in one slice: got %+v, want the median slice's p99 = 1 over 3 slices of 1000", got)
	}

	// Under two slices' worth of ops the run is one slice: the plain rule.
	short := [][]float64{ascending(1500)}
	at := [][]time.Duration{make([]time.Duration, 1500)}
	for j := range at[0] {
		at[0][j] = time.Duration(j + 1)
	}
	v, p, b := tailPercentile(ascending(1500))
	if got := slicedTail(at, short); got.slices != 1 || got.value != v || got.p != p || got.beyond != b {
		t.Errorf("short run: got %+v, want the whole run's p%g = %g", got, p, v)
	}
}
