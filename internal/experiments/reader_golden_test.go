//go:build !race

package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
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
	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/workgen"
)

// readerGoldenFile pins the exchange and cd readers' observable behaviour
// — rendered diagnostics, output and error text, for ReadBytes and
// ReadStream in strict and lenient mode — over broken inputs as well as
// clean ones. A reader rewrite must leave every line byte-identical.
//
// Regenerate (only for a deliberate output change, named in CHANGES.md):
//
//	go test ./internal/experiments -run TestReaderGolden -update
const readerGoldenFile = "testdata/reader_golden.txt"

var updateReaderGolden = flag.Bool("update", false, "rewrite testdata/reader_golden.txt")

// goldenGroup is a named, ordered set of inputs fed to one format's
// readers; its golden lines hash the per-input results in order.
type goldenGroup struct {
	name    string
	format  string // "exchange" or "cd"
	require bool   // exchange RequireTrailer
	lint    bool   // cd Lint
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
	return append(groups, equivGroups(t)...)
}

// equivGroups holds the inputs of the exchange and cd packages' reader
// equivalence tests: writer output under every option set, hand-written
// semantic and structural damage, and integrity-trailer failures.
func equivGroups(t *testing.T) []goldenGroup {
	nl := equivNetlist(t)
	write := func(nl *netlist.Netlist, wo exchange.WriteOptions) []byte {
		var buf bytes.Buffer
		if err := exchange.Write(&buf, nl, wo); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var written, guarded [][]byte
	for _, wo := range []exchange.WriteOptions{
		{},
		{Trailer: true},
		{Hints: true},
		{Trailer: true, Hints: true},
		{NameLimit: 10, Trailer: true},
		{VHDLSafe: true, NameLimit: 12, Trailer: true, Hints: true},
	} {
		written = append(written, write(nl, wo))
		if wo.Trailer {
			guarded = append(guarded, write(nl, wo))
		}
	}

	valid := "(edif top\n  (cell top (interface (port a input))\n    (contents\n      (net n (global) (property k \"v\"))\n      (instance i (of top) (joined (a n)))\n    )\n  )\n  (design top)\n)\n"
	var handwritten [][]byte
	for _, src := range []string{
		"",
		"; nothing here\n",
		"x\n",
		"42\n",
		"()\n",
		"(library foo)\n",
		"(edif)\n",
		"(edif a) (edif b)\n",
		valid,
		"(edif e stray (cell c (interface)))\n",
		"(edif e () (cell c (interface)))\n",
		"(edif e (foo bar))\n",
		"(edif e 'x)\n",
		"(edif e (design))\n",
		"(edif e (design (x)))\n",
		"(edif e (cell))\n",
		"(edif e (cell (x) (interface)))\n",
		"(edif e (cell c (interface)) (cell c (interface)))\n",
		"(edif e (cell c stray))\n",
		"(edif e (cell c (wibble)))\n",
		"(edif e (cell c (interface (port p))))\n",
		"(edif e (cell c (interface (port (p) input))))\n",
		"(edif e (cell c (interface (port p sideways))))\n",
		"(edif e (cell c (interface (port p input) (port p output))))\n",
		"(edif e (cell c (interface) (contents stray)))\n",
		"(edif e (cell c (interface) (contents (wire w))))\n",
		"(edif e (cell c (interface) (contents (net))))\n",
		"(edif e (cell c (interface) (contents (net (n)))))\n",
		"(edif e (cell c (interface) (contents (instance))))\n",
		"(edif e (cell c (interface) (contents (instance i))))\n",
		"(edif e (cell c (interface) (contents (instance i (joined (a n)) (of c)))))\n",
		"(edif e (cell c (interface) (contents (instance i (property k \"v\") (of c)))))\n",
		"(edif e (cell c (interface) (contents (instance i (of c) (joined (a))))))\n",
		"(edif e (cell c (interface) (contents (instance i (of ghost)))))\n",
		"(edif e (cell c (interface) (contents (net n) (instance i (of c) (joined (ghost n))))))\n",
		"(edif e (design ghost))\n",
		"(edif e (rename (x) \"orig\"))\n",
		"(edif e (rename x))\n",
		"(edif e (cell c (wibble)) (rename (x) \"orig\"))\n",
		"(edif e (cell c8 (interface (port p8 input))) (rename c8 \"a very long cell\") (rename p8 \"port(weird)\") (design c8))\n",
		valid[:strings.Index(valid, "(instance i")+20],
		valid[:strings.Index(valid, "(instance i")],
	} {
		handwritten = append(handwritten, []byte(src))
	}

	corrupt := append([]byte(nil), written[1]...) // {Trailer: true}
	corrupt[bytes.IndexByte(corrupt, 'c')] = 'k'  // flip a body byte, keep it parseable
	withTrailer := func(trailer string) []byte {
		body := write(nl, exchange.WriteOptions{})
		sum := sha256.Sum256(body)
		return fmt.Appendf(body, trailer+"\n", hex.EncodeToString(sum[:]))
	}
	integrity := [][]byte{
		corrupt,
		withTrailer("; integrity sha256:%s cells=x ports=0 nets=0 insts=0 conns=0 attrs=0"),
		withTrailer("; integrity sha256:%s cells=2"),
		withTrailer("; integrity sha256:%s cells=99 ports=2 nets=6 insts=4 conns=8 attrs=5"),
	}

	var cdWritten bytes.Buffer
	if err := cd.Write(&cdWritten, equivDesign(t)); err != nil {
		t.Fatal(err)
	}
	var cdHandwritten [][]byte
	for _, src := range []string{
		"",
		"; nothing\n",
		"x",
		"()",
		"(foo bar)",
		"(design)",
		"(design a)(design b)",
		"(design (x))",
		"(design a stray)",
		"(design a ())",
		"(design a (mystery 1))",
		"(design a (grid))",
		`(design a (grid "1/7in"))`,
		`(design a (grid "1/10in"))`,
		`(design a (globals "VDD" "GND"))`,
		"(design a (globals (x)))",
		"(design a (library))",
		"(design a (library (x) (symbol s v)))",
		"(design a (library l (frob)))",
		"(design a (library l (symbol s v (pin))))",
		"(design a (library l (symbol s v) (symbol s v)))",
		"(design a (cell))",
		"(design a (cell (x) (port p input)))",
		"(design a (cell c) (cell c))",
		"(design a (cell c stray))",
		"(design a (cell c (widget 1)))",
		"(design a (cell c (port p)))",
		"(design a (cell c (port p sideways)))",
		"(design a (cell c (page)))",
		"(design a (cell c (page 1)))",
		"(design a (cell c (page 1 (size 0 0 10 10))))",
		"(design a (cell c (page 1 (size 0 0 x 10))))",
		"(design a (cell c (page 1 (size 0 0) (wire (0 0) (1 1)))))",
		"(design a (cell c (page 1 (size 0 0 9 9) stray)))",
		"(design a (cell c (page 1 (size 0 0 9 9) (gizmo))))",
		"(design a (cell c (page 1 (size 0 0 9 9) (inst))))",
		"(design a (cell c (page 1 (size 0 0 9 9) (inst i (of l)))))",
		"(design a (cell c (page 1 (size 0 0 9 9) (wire (0)))))",
		"(design a (cell c (page 1 (size 0 0 9 9) (label))))",
		"(design a (cell c (page 1 (size 0 0 9 9) (conn pin))))",
		"(design a (cell c (page 1 (size 0 0 9 9) (text))))",
		`(design a (cell c (page 1 (size 0 0 9 9) (conn hier-in "p" (at 1 1) (of l s v) (orient R0)))))`,
		"(design a",
		"(design a (cell c (page 1 (size 0 0 9 9) (wire (0 0) (1 1))",
		") (design a)",
	} {
		cdHandwritten = append(cdHandwritten, []byte(src))
	}

	return []goldenGroup{
		{name: "equiv/written", format: "exchange", inputs: written},
		{name: "equiv/written+guard", format: "exchange", require: true, inputs: guarded},
		{name: "equiv/handwritten", format: "exchange", inputs: handwritten},
		{name: "equiv/handwritten+guard", format: "exchange", require: true, inputs: [][]byte{[]byte(valid)}},
		{name: "equiv/integrity", format: "exchange", inputs: integrity},
		{name: "equiv/written", format: "cd", inputs: [][]byte{cdWritten.Bytes()}},
		{name: "equiv/written+lint", format: "cd", lint: true, inputs: [][]byte{cdWritten.Bytes()}},
		{name: "equiv/handwritten", format: "cd", inputs: cdHandwritten},
	}
}

// equivNetlist builds a netlist with renames (long names under a
// NameLimit), globals, attributes and a hierarchy: every record kind.
func equivNetlist(t *testing.T) *netlist.Netlist {
	nl := netlist.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	buf, err := nl.AddCell("a_buffer_cell_with_a_long_name")
	must(err)
	buf.Primitive = true
	must(buf.AddPort("input_port_long_name", netlist.Input))
	must(buf.AddPort("output_port_long_name", netlist.Output))
	top, err := nl.AddCell("top_level_cell_long_name")
	must(err)
	clk := top.EnsureNet("global_clock_net_name")
	clk.Global = true
	clk.Attrs["class"] = "clock tree"
	for i := 0; i < 4; i++ {
		in := fmt.Sprintf("instance_number_%d_long", i)
		inst, err := top.AddInstance(in, "a_buffer_cell_with_a_long_name")
		must(err)
		inst.Attrs["placed at"] = fmt.Sprintf("row %d", i)
		must(top.Connect(in, "input_port_long_name", fmt.Sprintf("internal_net_%d", i)))
		must(top.Connect(in, "output_port_long_name", fmt.Sprintf("internal_net_%d", i+1)))
	}
	nl.Top = "top_level_cell_long_name"
	return nl
}

// equivDesign builds a one-page schematic carrying every record kind:
// symbol with pins, port, instance with a property, wire, label,
// connector and text.
func equivDesign(t *testing.T) *schematic.Design {
	d := schematic.NewDesign("sample", geom.GridSixteenth)
	d.Globals = []string{"VDD"}
	lib := d.EnsureLibrary("cdlib")
	if err := lib.AddSymbol(&schematic.Symbol{
		Name: "nand2", View: "symbol", Body: geom.R(0, 0, 4, 4),
		Pins: []schematic.SymbolPin{
			{Name: "A", Pos: geom.Pt(0, 0), Dir: netlist.Input},
			{Name: "Y", Pos: geom.Pt(4, 0), Dir: netlist.Output},
		},
	}); err != nil {
		t.Fatal(err)
	}
	c, err := d.AddCell("top")
	if err != nil {
		t.Fatal(err)
	}
	c.Ports = []netlist.Port{{Name: "din", Dir: netlist.Input}}
	pg := c.AddPage(geom.R(0, 0, 176, 136))
	if err := pg.AddInstance(&schematic.Instance{
		Name: "I0", Sym: schematic.SymbolKey{Lib: "cdlib", Name: "nand2", View: "symbol"},
		Placement: geom.Transform{Orient: geom.MY, Offset: geom.Pt(16, 32)},
		Props:     []schematic.Property{{Name: "instName", Value: "I0", Visible: true, At: geom.Pt(1, 1), Size: 10}},
	}); err != nil {
		t.Fatal(err)
	}
	pg.Wires = append(pg.Wires, &schematic.Wire{Points: []geom.Point{geom.Pt(8, 32), geom.Pt(16, 32)}})
	pg.Labels = append(pg.Labels, &schematic.Label{Text: "A<0:15>", At: geom.Pt(8, 32), Size: 10})
	pg.Conns = append(pg.Conns, &schematic.Connector{
		Kind: schematic.ConnHierIn, Name: "din", At: geom.Pt(8, 32),
		Sym: schematic.SymbolKey{Lib: "basic", Name: "ipin", View: "symbol"},
	})
	pg.Texts = append(pg.Texts, &schematic.Text{S: "sheet 1 of 1", At: geom.Pt(4, 130), SizePts: 12, BaselineOffset: 1})
	d.Top = "top"
	return d
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
		opts := cd.ReadOptions{Mode: mode, Source: "golden", Lint: g.lint}
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

// TestReaderGolden holds each format's reader, through ReadBytes and
// ReadStream, to the pinned diagnostics, outputs and errors.
func TestReaderGolden(t *testing.T) {
	if *updateReaderGolden {
		var b strings.Builder
		b.WriteString("# Reader golden pin: one line per (input group, format, entry point, mode),\n")
		b.WriteString("# the sha256 of rendered diagnostics, output and error text. See reader_golden_test.go.\n")
		for _, line := range readerGoldenLines(t) {
			b.WriteString(line + "\n")
		}
		if err := os.WriteFile(readerGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
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
