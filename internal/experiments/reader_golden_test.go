//go:build !race

package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/diag/diagtest"
	"cadinterop/internal/exchange"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/workgen"
)

// readerGoldenFile pins the exchange and cd readers' observable behaviour
// — rendered diagnostics, output and error text, for ReadBytes and
// ReadStream in strict and lenient mode — over broken inputs as well as
// clean ones. A reader rewrite must leave every line byte-identical.
const readerGoldenFile = "testdata/reader_golden.txt"

// goldenGroup is a named, ordered set of inputs fed to one format's
// readers; its golden lines hash the per-input results in order.
type goldenGroup struct {
	name    string
	format  string // "exchange" or "cd"
	require bool   // exchange RequireTrailer
	inputs  [][]byte
}

// fuzzSeeds returns the committed FuzzParse seed corpora of the
// s-expression readers, in path order.
func fuzzSeeds(t testing.TB) (names []string, data [][]byte) {
	t.Helper()
	for _, dir := range []string{"../al", "../exchange", "../schematic/cd"} {
		paths, err := filepath.Glob(filepath.Join(dir, "testdata/fuzz/FuzzParse/*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(paths)
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			_, body, ok := strings.Cut(string(raw), "\n")
			body = strings.TrimSpace(body)
			lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(body, "[]byte("), "string("), ")")
			s, err := strconv.Unquote(lit)
			if !ok || err != nil {
				t.Fatalf("%s: not a one-value fuzz seed file", p)
			}
			names = append(names, strings.TrimPrefix(filepath.ToSlash(p), "../"))
			data = append(data, []byte(s))
		}
	}
	return names, data
}

// sweepInputs collects the inputs of diagtest's prefix, mutation and
// truncation sweeps over src, one group each.
func sweepInputs(t *testing.T, format string, src []byte) []goldenGroup {
	collect := func(sweep func(diagtest.ParseFn)) [][]byte {
		var out [][]byte
		sweep(func(data []byte) error {
			out = append(out, append([]byte(nil), data...))
			return nil
		})
		return out
	}
	return []goldenGroup{
		{name: "sweep/prefix", format: format, inputs: collect(func(f diagtest.ParseFn) { diagtest.PrefixSweep(t, src, 1, f) })},
		{name: "sweep/mutation", format: format, inputs: collect(func(f diagtest.ParseFn) { diagtest.MutationSweep(t, src, 0x601d, 400, f) })},
		{name: "sweep/truncate", format: format, inputs: collect(func(f diagtest.ParseFn) { diagtest.TruncateMidline(t, src, f) })},
	}
}

// readerGoldenGroups assembles every pinned input set.
func readerGoldenGroups(t *testing.T) []goldenGroup {
	var groups []goldenGroup
	names, seeds := fuzzSeeds(t)
	for i, name := range names {
		for _, format := range []string{"exchange", "cd"} {
			groups = append(groups, goldenGroup{name: "fuzz/" + name, format: format, inputs: [][]byte{seeds[i]}})
		}
	}

	var ex bytes.Buffer
	nl := workgen.ScaleNetlist(workgen.ScaleOptions{Nets: 24, Seed: 3})
	if err := exchange.Write(&ex, nl, exchange.WriteOptions{NameLimit: 6, VHDLSafe: true, Trailer: true, Hints: true}); err != nil {
		t.Fatal(err)
	}
	groups = append(groups, sweepInputs(t, "exchange", ex.Bytes())...)
	var cdSrc bytes.Buffer
	w := workgen.Schematic(workgen.SchematicOptions{Instances: 6, Pages: 2, Seed: 3, AnalogFraction: 50})
	if err := cd.Write(&cdSrc, w.Design); err != nil {
		t.Fatal(err)
	}
	groups = append(groups, sweepInputs(t, "cd", cdSrc.Bytes())...)

	// E14's corrupted inputs, generated exactly as the experiment does.
	readers, err := e14Readers()
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range readers {
		format, require := rd.name, false
		switch rd.name {
		case "exchange", "cd":
		case "exchange+guard":
			format, require = "exchange", true
		default:
			continue
		}
		for ri, rate := range e14Rates {
			g := goldenGroup{name: fmt.Sprintf("e14/%s/%.3f", rd.name, rate), format: format, require: require}
			for trial := 0; trial < e14Trials; trial++ {
				key := fmt.Sprintf("%s|%d|%d", rd.name, ri, trial)
				seed := e14mix(e14fnv(key) ^ e14mix(e14Seed))
				g.inputs = append(g.inputs, []byte(e14corrupt(rd.src, seed, rate)))
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// readOnce runs one reader over data and returns its rendered
// diagnostics, output (exchange fingerprint or cd.Write text) and error
// text.
func readOnce(g goldenGroup, stream bool, mode diag.Mode, data []byte) (diags, out, errText string) {
	var ds []diag.Diagnostic
	var err error
	switch g.format {
	case "exchange":
		opts := exchange.ReadOptions{Mode: mode, Source: "golden", RequireTrailer: g.require}
		var nl *netlist.Netlist
		if stream {
			nl, ds, err = exchange.ReadStream(bytes.NewReader(data), opts)
		} else {
			nl, ds, err = exchange.ReadBytes(data, opts)
		}
		if nl != nil {
			fp, ferr := exchange.Fingerprint(nl)
			out = fp + fmt.Sprint(ferr)
		}
	case "cd":
		opts := cd.ReadOptions{Mode: mode, Source: "golden"}
		var d *schematic.Design
		if stream {
			d, ds, err = cd.ReadStream(bytes.NewReader(data), opts)
		} else {
			d, ds, err = cd.ReadBytes(data, opts)
		}
		if d != nil {
			var b bytes.Buffer
			werr := cd.Write(&b, d)
			out = b.String() + fmt.Sprint(werr)
		}
	}
	if err != nil {
		errText = err.Error()
	}
	return diag.Render(ds), out, errText
}

// readerGoldenLines computes one line per (group, entry point, mode):
// the sha256 of the group's diagnostics, outputs and error texts, each
// concatenated over its inputs in order.
func readerGoldenLines(t *testing.T) []string {
	var lines []string
	for _, g := range readerGoldenGroups(t) {
		for _, entry := range []string{"ReadBytes", "ReadStream"} {
			for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
				hd, ho, he := sha256.New(), sha256.New(), sha256.New()
				for i, data := range g.inputs {
					d, o, e := readOnce(g, entry == "ReadStream", mode, data)
					fmt.Fprintf(hd, "%d\x00%s\x00", i, d)
					fmt.Fprintf(ho, "%d\x00%s\x00", i, o)
					fmt.Fprintf(he, "%d\x00%s\x00", i, e)
				}
				lines = append(lines, fmt.Sprintf("%s %s %s %v diags=%s out=%s err=%s",
					g.name, g.format, entry, mode,
					hex.EncodeToString(hd.Sum(nil)), hex.EncodeToString(ho.Sum(nil)), hex.EncodeToString(he.Sum(nil))))
			}
		}
	}
	return lines
}

// TestReaderGolden holds both readers of both formats to the pinned
// diagnostics, outputs and errors.
func TestReaderGolden(t *testing.T) {
	f, err := os.Open(readerGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := readerGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, computed %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
