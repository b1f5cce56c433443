// Command perfbench is the repository's end-to-end benchmark. It builds
// seeded inputs, runs one workload as a fixed closed-loop op sequence,
// checks every op's output, and prints its metrics; with -trace 1 it
// instead records spans around each layer's public functions and prints
// per-layer metrics. See README.md in this directory.
//
//	bash perfbench/run.sh -workload vet -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// opsPerSecond converts -seconds into each workload's fixed op count: a
// run always executes round(rate × seconds) ops, rounded up to whole
// blocks, never "as many as fit". The rates are constants sized to a 2-CPU
// host, not measurements.
var opsPerSecond = map[string]float64{"vet": 45, "pnr": 16, "daemon": 300}

var workloads = []string{"vet", "pnr", "daemon"}

// setupReps is how many times a run builds its inputs and warms up;
// setup_s is their median and the last set-up is the one measured.
const setupReps = 3

// Work and output directories, relative to the checkout root the
// benchmark runs from.
const (
	workDir = ".bench_work"
	outDir  = ".bench_out"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the host and run description printed before the result.
type meta struct {
	Workload    string         `json:"workload"`
	Trace       bool           `json:"trace"`
	Seed        int64          `json:"seed"`
	DefaultSeed int64          `json:"default_seed"`
	HeldoutSeed int64          `json:"heldout_seed"`
	Nproc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Ops         int            `json:"ops"`
	Clients     int            `json:"clients"`
	InputDigest string         `json:"input_digest"`
	Samples     map[string]int `json:"samples"`
	Tail        string         `json:"tail,omitempty"`
	WindowRates []float64      `json:"window_ops_per_s,omitempty"`
	OverheadPct *float64       `json:"trace_overhead_pct,omitempty"`
	Spans       string         `json:"spans,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: vet, pnr, daemon, or all (each in its own process)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed for claims: %d)", defaultSeed, heldoutSeed))
	seconds := fs.Int("seconds", 10, "nominal run length; fixes the op count")
	trace := fs.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	record := fs.String("record-pnr-digests", "", "record the pnr output digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	if _, ok := opsPerSecond[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want vet, pnr, daemon or all)\n", *workload)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(workDir, *workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	var res result
	var m meta
	if *trace == 1 {
		res, m, err = runTraced(*workload, *seed, *seconds, work, stdout)
	} else {
		res, m, err = runE2E(*workload, *seed, *seconds, work)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	m.Workload, m.Trace, m.Seed = *workload, *trace == 1, *seed
	m.DefaultSeed, m.HeldoutSeed = defaultSeed, heldoutSeed
	m.Nproc, m.GOMAXPROCS, m.GoVersion, m.Commit = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit()
	report(stdout, res, m)
	return 0
}

// opCount is the workload's fixed op count for a run of the given length.
func opCount(w string, seconds int) int {
	return int(opsPerSecond[w]*float64(seconds) + 0.5)
}

// setup builds one workload's inputs and runs its warm pass.
func setup(w string, seed int64, n int, work string) (*plan, error) {
	switch w {
	case "vet":
		return setupVet(seed, n, work)
	case "pnr":
		return setupPnr(seed, n)
	default:
		p, _, err := setupDaemon(seed, n)
		return p, err
	}
}

// runE2E sets the workload up setupReps times, then measures one untraced
// pass over the last set-up's op list.
func runE2E(w string, seed int64, seconds int, work string) (result, meta, error) {
	n := opCount(w, seconds)
	var p *plan
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.close()
		}
		t0 := time.Now()
		var err error
		if p, err = setup(w, seed, n, work); err != nil {
			return result{}, meta{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.close()
	lr := runLoop(p)
	for _, e := range lr.errs {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", e)
	}
	ops, tail, nw := len(lr.lat), lr.tail, len(lr.windowRates)
	res := result{
		Correct: lr.failed == 0, Attempted: ops, Failed: lr.failed,
		Metrics: map[string]metric{
			"ops_per_s":       {lr.opsPerS, "1/s"},
			"latency_p50_ms":  {percentile(lr.lat, 50), "ms"},
			"latency_tail_ms": {tail.value, "ms"},
			"cpu_ms_per_op":   {lr.cpuPerOp, "ms"},
			"peak_rss_mb":     {lr.peakKB / 1024, "MB"},
			"setup_s":         {median(setups), "s"},
		},
	}
	m := meta{
		Ops: ops, Clients: len(p.clients), InputDigest: p.digest,
		Samples: map[string]int{"ops_per_s": nw, "latency_p50_ms": ops, "latency_tail_ms": ops,
			"cpu_ms_per_op": nw, "peak_rss_mb": nw, "setup_s": len(setups)},
		Tail: fmt.Sprintf("p%g with %d of %d samples beyond it; median of %d slice(s) in completion order",
			tail.p, tail.beyond, tail.perSlice, tail.slices),
		WindowRates: lr.windowRates,
	}
	return res, m, nil
}

// runTraced sets the workload up once, measures the tracing overhead on
// its op list, then runs every workload's layer breakdown on the seed's
// inputs and writes all spans to outDir.
func runTraced(w string, seed int64, seconds int, work string, stdout io.Writer) (result, meta, error) {
	p, err := setup(w, seed, opCount(w, seconds), work)
	if err != nil {
		return result{}, meta{}, err
	}
	defer p.close()
	epoch := time.Now()
	pr := runPairs(p, epoch)
	overhead := 100 * (pr.traced.Seconds() - pr.untraced.Seconds()) / pr.untraced.Seconds()

	l := &layerRun{rec: newRecorder(epoch, layerRecBase<<24), values: map[string]float64{}, samples: map[string]int{}}
	l.attempted, l.failed, l.errs = pr.attempted, pr.failed, pr.errs
	if err := vetLayers(l, seed, work); err != nil {
		return result{}, meta{}, fmt.Errorf("vet layers: %w", err)
	}
	if err := pnrLayers(l, seed); err != nil {
		return result{}, meta{}, fmt.Errorf("pnr layers: %w", err)
	}
	if err := daemonLayers(l, seed); err != nil {
		return result{}, meta{}, fmt.Errorf("daemon layers: %w", err)
	}
	l.set("trace.overhead_pct", overhead, pr.attempted)

	spans := append(append(pr.spans, l.rec.Spans()...), l.extra...)
	l.check(checkNesting(spans))
	for _, e := range l.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w, seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, meta{}, err
	}
	fmt.Fprintln(stdout, "self time by span:")
	writeSelfTable(stdout, spans)

	res := result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		v, ok := l.values[pl.name]
		if !ok {
			return result{}, meta{}, fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
	}
	m := meta{Ops: p.ops(), Clients: len(p.clients), InputDigest: p.digest, Samples: l.samples,
		OverheadPct: &overhead, Spans: path}
	return res, m, nil
}

// report prints the metrics table, the metadata line and, last, the
// result object.
func report(w io.Writer, res result, m meta) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "failed/attempted: %d/%d\n", res.Failed, res.Attempted)
	mj, _ := json.Marshal(m)
	fmt.Fprintf(w, "meta: %s\n", mj)
	rj, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", rj)
}

// commit names the source revision the binary was built from, when the
// build could stamp it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// runAll runs every workload in its own process, one after another, and
// prints their metrics prefixed by workload.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s\n", w)
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w, err)
			return 1
		}
		var r result
		if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: bad result line: %v\n", w, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, v := range r.Metrics {
			all.Metrics[w+"."+n] = v
		}
	}
	fmt.Fprintln(stdout, "== all")
	report(stdout, all, meta{Workload: "all", Trace: trace == 1, Seed: seed, DefaultSeed: defaultSeed,
		HeldoutSeed: heldoutSeed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit()})
	return 0
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
