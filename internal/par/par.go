// Package par is a deterministic parallel-execution layer: a bounded
// worker pool whose observable behaviour — result order and the error it
// returns — is identical whether work runs on one goroutine or many. The
// ROADMAP wants hot paths to run "as fast as the hardware allows", but
// DESIGN.md §5b values determinism above raw speed, so every primitive here
// collects results in submission order and propagates the lowest-index
// error, exactly what a sequential loop would have surfaced first. Callers
// keep a serial reference implementation for free: Workers(1) runs the
// identical code path inline, with early exit, on the calling goroutine.
//
// Functions passed to this package must be safe to call concurrently with
// each other (no shared mutable state without synchronization). Under
// Workers(n>1) a function after a failing index may still run — results
// must therefore not depend on later indices being skipped.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
)

// cfg carries resolved options.
type cfg struct {
	workers int
	reg     *obs.Registry
	cache   *memo.Cache
}

// Option configures a par call.
type Option func(*cfg)

// Metrics records pool behaviour into reg: a "par.queue.depth"
// histogram (work remaining as each index is claimed — deterministic,
// each depth in [0,n) observed exactly once per call) and a
// "par.workers" gauge (workers granted; its max is the pool's high-water
// mark). A nil reg records nothing at zero cost.
func Metrics(reg *obs.Registry) Option {
	return func(c *cfg) { c.reg = reg }
}

// Workers bounds the worker pool at n goroutines. n <= 0 (and the
// default) means runtime.GOMAXPROCS(0). Workers(1) is the sequential
// fallback: work runs inline on the caller's goroutine, in order, stopping
// at the first error — the serial reference every parallel call site can be
// tested against.
func Workers(n int) Option {
	return func(c *cfg) { c.workers = n }
}

// N reports the worker count the options resolve to (GOMAXPROCS when
// unset), for callers that size their own work from it instead of
// spawning workers through this package.
func N(opts ...Option) int {
	c := cfg{}
	for _, o := range opts {
		o(&c)
	}
	if c.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.workers
}

// Cache attaches a content-addressed result cache (see internal/memo) to
// the option list. The pool primitives ignore it; it rides the option
// list so entry points can hand one knob set to call chains —
// the backplane's per-tool memoization, migrate's translation cache —
// that consult it via CacheOf. A nil cache (and the default) disables
// memoization: every consumer treats Get/Put on a nil *memo.Cache as a
// no-op miss.
func Cache(c *memo.Cache) Option {
	return func(o *cfg) { o.cache = c }
}

// CacheOf reports the cache the options resolve to (nil when unset).
func CacheOf(opts ...Option) *memo.Cache {
	c := cfg{}
	for _, o := range opts {
		o(&c)
	}
	return c.cache
}

// resolve applies options and clamps the worker count to the job size.
// The returned pool carries the (possibly nil) metric instruments.
func resolve(n int, opts []Option) (int, pool) {
	c := cfg{}
	for _, o := range opts {
		o(&c)
	}
	w := c.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	// Nil-registry lookups return nil instruments whose methods no-op.
	p := pool{
		depth:   c.reg.Histogram("par.queue.depth", 1, 2, 4, 8, 16, 32, 64),
		workers: c.reg.Gauge("par.workers"),
	}
	p.workers.Set(int64(w))
	return w, p
}

// pool carries the per-call metric instruments (nil when Metrics was
// not given).
type pool struct {
	depth   *obs.Histogram
	workers *obs.Gauge
}

// claimed records that index i of n was handed to a worker.
func (p pool) claimed(i, n int) {
	p.depth.Observe(int64(n - 1 - i))
}

// Map runs fn for every index in [0, n) and returns the results in index
// order. On error it returns the error with the lowest index — the same
// error a sequential loop would have returned — and no results. Under
// Workers(1) indices after a failure are never evaluated; under more
// workers some may be (their results are discarded).
func Map[T any](n int, fn func(i int) (T, error), opts ...Option) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if w, p := resolve(n, opts); w > 1 {
		errs := make([]error, n)
		run(n, w, p, func(i int) error {
			var err error
			out[i], err = fn(i)
			errs[i] = err
			return err
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	} else {
		for i := 0; i < n; i++ {
			p.claimed(i, n)
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	return out, nil
}

// ForEach runs fn for every index in [0, n), returning the lowest-index
// error (nil if all succeed). Ordering guarantees match Map.
func ForEach(n int, fn func(i int) error, opts ...Option) error {
	if n <= 0 {
		return nil
	}
	if w, p := resolve(n, opts); w > 1 {
		errs := make([]error, n)
		run(n, w, p, func(i int) error {
			errs[i] = fn(i)
			return errs[i]
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	} else {
		for i := 0; i < n; i++ {
			p.claimed(i, n)
			if err := fn(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Do runs every function, returning the lowest-index error. It is ForEach
// over a fixed task list.
func Do(fns []func() error, opts ...Option) error {
	return ForEach(len(fns), func(i int) error { return fns[i]() }, opts...)
}

// MapAll runs fn for EVERY index in [0, n) — no early exit — and returns
// all results alongside a per-index error slice. It is the graceful-
// degradation variant of Map: a failing index costs that one entry, not
// the whole batch. Both slices are always length n and index-aligned;
// errs is nil when every index succeeded. Combine with FirstError to
// recover Map's lowest-index error semantics.
func MapAll[T any](n int, fn func(i int) (T, error), opts ...Option) ([]T, []error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	any := false
	if w, p := resolve(n, opts); w > 1 {
		var anyErr atomic.Bool
		runAll(n, w, p, func(i int) {
			var err error
			out[i], err = fn(i)
			errs[i] = err
			if err != nil {
				anyErr.Store(true)
			}
		})
		any = anyErr.Load()
	} else {
		for i := 0; i < n; i++ {
			p.claimed(i, n)
			out[i], errs[i] = fn(i)
			if errs[i] != nil {
				any = true
			}
		}
	}
	if !any {
		return out, nil
	}
	return out, errs
}

// FirstError returns the lowest-index non-nil error — the error a
// sequential fail-fast loop would have surfaced — or nil. It is how MapAll
// callers reduce a per-index error slice back to Map's contract.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run dispatches indices [0, n) across w worker goroutines via an atomic
// cursor. After any function fails, workers stop claiming new indices
// (best effort — in-flight work completes), bounding wasted work while the
// caller still reports the lowest-index error deterministically.
func run(n, w int, p pool, fn func(i int) error) {
	runDispatch(n, w, p, fn, true)
}

// runAll dispatches indices [0, n) across w workers with no early exit —
// every index runs exactly once regardless of failures elsewhere.
func runAll(n, w int, p pool, fn func(i int)) {
	runDispatch(n, w, p, func(i int) error { fn(i); return nil }, false)
}

func runDispatch(n, w int, p pool, fn func(i int) error, earlyExit bool) {
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if earlyExit && failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				p.claimed(i, n)
				if fn(i) != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}
