package exchange

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"cadinterop/internal/diag"
	"cadinterop/internal/netlist"
)

// assertStreamEquiv reads the same bytes in whole chunks (ReadBytes) and
// byte-at-a-time, which drives every window-edge refill path in the
// scanner, and asserts identical netlist, diagnostics and error: the
// result must not depend on where the reads split the input. The
// readers' output itself is pinned by the reader golden file in
// internal/experiments.
func assertStreamEquiv(t *testing.T, data []byte, opts ReadOptions) {
	t.Helper()
	bn, bd, berr := ReadBytes(data, opts)
	sn, sd, serr := ReadStream(iotest.OneByteReader(bytes.NewReader(data)), opts)
	if (berr == nil) != (serr == nil) || (berr != nil && berr.Error() != serr.Error()) {
		t.Fatalf("error mismatch:\nwhole:    %v\nbytewise: %v", berr, serr)
	}
	if !reflect.DeepEqual(bd, sd) {
		t.Fatalf("diagnostics mismatch:\nwhole:\n%s\nbytewise:\n%s", diag.Render(bd), diag.Render(sd))
	}
	if !reflect.DeepEqual(bn, sn) {
		t.Fatalf("netlist mismatch:\nwhole:    %+v\nbytewise: %+v", bn, sn)
	}
}

// streamTestNetlist builds a netlist with renames (long names + NameLimit),
// globals, attributes and a hierarchy, exercising every record kind.
func streamTestNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New()
	buf, err := nl.AddCell("a_buffer_cell_with_a_long_name")
	if err != nil {
		t.Fatal(err)
	}
	buf.Primitive = true
	if err := buf.AddPort("input_port_long_name", netlist.Input); err != nil {
		t.Fatal(err)
	}
	if err := buf.AddPort("output_port_long_name", netlist.Output); err != nil {
		t.Fatal(err)
	}
	top, err := nl.AddCell("top_level_cell_long_name")
	if err != nil {
		t.Fatal(err)
	}
	clk := top.EnsureNet("global_clock_net_name")
	clk.Global = true
	clk.Attrs["class"] = "clock tree"
	for i := 0; i < 4; i++ {
		in := fmt.Sprintf("instance_number_%d_long", i)
		inst, err := top.AddInstance(in, "a_buffer_cell_with_a_long_name")
		if err != nil {
			t.Fatal(err)
		}
		inst.Attrs["placed at"] = fmt.Sprintf("row %d", i)
		if err := top.Connect(in, "input_port_long_name", fmt.Sprintf("internal_net_%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := top.Connect(in, "output_port_long_name", fmt.Sprintf("internal_net_%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	nl.Top = "top_level_cell_long_name"
	return nl
}

// TestStreamEquivalenceWritten: everything the writer can produce —
// trailers, renames, hints, VHDL-safe aliasing — reads back identically
// however the input is chunked, in both modes.
func TestStreamEquivalenceWritten(t *testing.T) {
	nl := streamTestNetlist(t)
	wopts := []WriteOptions{
		{},
		{Trailer: true},
		{Hints: true},
		{Trailer: true, Hints: true},
		{NameLimit: 10, Trailer: true},
		{VHDLSafe: true, NameLimit: 12, Trailer: true, Hints: true},
	}
	for _, wo := range wopts {
		var buf bytes.Buffer
		if err := Write(&buf, nl, wo); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("write%+v/%v", wo, mode), func(t *testing.T) {
				assertStreamEquiv(t, buf.Bytes(), ReadOptions{Mode: mode})
				if wo.Trailer {
					assertStreamEquiv(t, buf.Bytes(), ReadOptions{Mode: mode, RequireTrailer: true})
				}
			})
		}
	}
}

// TestStreamEquivalenceHandwritten holds inputs with semantic damage,
// structural oddities and truncation to the same diagnostics — order,
// positions and messages — however the input is chunked.
func TestStreamEquivalenceHandwritten(t *testing.T) {
	valid := "(edif top\n  (cell top (interface (port a input))\n    (contents\n      (net n (global) (property k \"v\"))\n      (instance i (of top) (joined (a n)))\n    )\n  )\n  (design top)\n)\n"
	cases := []struct {
		name    string
		src     string
		require bool
	}{
		{name: "empty", src: ""},
		{name: "comment-only", src: "; nothing here\n"},
		{name: "lone-atom", src: "x\n"},
		{name: "lone-number", src: "42\n"},
		{name: "empty-list", src: "()\n"},
		{name: "not-edif", src: "(library foo)\n"},
		{name: "edif-too-short", src: "(edif)\n"},
		{name: "two-forms", src: "(edif a) (edif b)\n"},
		{name: "valid", src: valid},
		{name: "valid-required-missing", src: valid, require: true},
		{name: "unexpected-atom-item", src: "(edif e stray (cell c (interface)))\n"},
		{name: "unexpected-empty-item", src: "(edif e () (cell c (interface)))\n"},
		{name: "unknown-form", src: "(edif e (foo bar))\n"},
		{name: "quoted-item", src: "(edif e 'x)\n"},
		{name: "design-no-name", src: "(edif e (design))\n"},
		{name: "design-bad-name", src: "(edif e (design (x)))\n"},
		{name: "cell-no-name", src: "(edif e (cell))\n"},
		{name: "cell-bad-name", src: "(edif e (cell (x) (interface)))\n"},
		{name: "cell-dup", src: "(edif e (cell c (interface)) (cell c (interface)))\n"},
		{name: "bad-cell-item", src: "(edif e (cell c stray))\n"},
		{name: "unknown-cell-item", src: "(edif e (cell c (wibble)))\n"},
		{name: "bad-port", src: "(edif e (cell c (interface (port p))))\n"},
		{name: "bad-port-fields", src: "(edif e (cell c (interface (port (p) input))))\n"},
		{name: "bad-port-dir", src: "(edif e (cell c (interface (port p sideways))))\n"},
		{name: "dup-port", src: "(edif e (cell c (interface (port p input) (port p output))))\n"},
		{name: "bad-contents-item", src: "(edif e (cell c (interface) (contents stray)))\n"},
		{name: "unknown-contents-item", src: "(edif e (cell c (interface) (contents (wire w))))\n"},
		{name: "net-no-name", src: "(edif e (cell c (interface) (contents (net))))\n"},
		{name: "net-bad-name", src: "(edif e (cell c (interface) (contents (net (n)))))\n"},
		{name: "instance-no-name", src: "(edif e (cell c (interface) (contents (instance))))\n"},
		{name: "instance-no-of", src: "(edif e (cell c (interface) (contents (instance i))))\n"},
		{name: "joined-before-of", src: "(edif e (cell c (interface) (contents (instance i (joined (a n)) (of c)))))\n"},
		{name: "property-before-of", src: "(edif e (cell c (interface) (contents (instance i (property k \"v\") (of c)))))\n"},
		{name: "bad-joined-pair", src: "(edif e (cell c (interface) (contents (instance i (of c) (joined (a))))))\n"},
		{name: "dangling-master", src: "(edif e (cell c (interface) (contents (instance i (of ghost)))))\n"},
		{name: "dangling-port", src: "(edif e (cell c (interface) (contents (net n) (instance i (of c) (joined (ghost n))))))\n"},
		{name: "dangling-top", src: "(edif e (design ghost))\n"},
		{name: "rename-bad", src: "(edif e (rename (x) \"orig\"))\n"},
		{name: "rename-short-ignored", src: "(edif e (rename x))\n"},
		{name: "rename-bad-then-cell-error", src: "(edif e (cell c (wibble)) (rename (x) \"orig\"))\n"},
		{name: "rename-applied", src: "(edif e (cell c8 (interface (port p8 input))) (rename c8 \"a very long cell\") (rename p8 \"port(weird)\") (design c8))\n"},
		{name: "truncated-mid-record", src: valid[:strings.Index(valid, "(instance i")+20]},
		{name: "truncated-between-records", src: valid[:strings.Index(valid, "(instance i")]},
	}
	for _, tc := range cases {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				assertStreamEquiv(t, []byte(tc.src), ReadOptions{Mode: mode, RequireTrailer: tc.require})
			})
		}
	}
}

// TestStreamEquivalenceIntegrity covers the trailer failure modes: bad
// checksum, malformed counts, incomplete manifest, manifest mismatch.
func TestStreamEquivalenceIntegrity(t *testing.T) {
	nl := streamTestNetlist(t)
	var good bytes.Buffer
	if err := Write(&good, nl, WriteOptions{Trailer: true}); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good.Bytes()...)
	corrupt[bytes.IndexByte(corrupt, 'c')] = 'k' // flip a body byte, keep it parseable

	body := func(trailer string) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, nl, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&buf, trailer+"\n", hex.EncodeToString(sum[:]))
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"checksum-mismatch", corrupt},
		{"malformed-count", body("; integrity sha256:%s cells=x ports=0 nets=0 insts=0 conns=0 attrs=0")},
		{"incomplete-manifest", body("; integrity sha256:%s cells=2")},
		{"manifest-mismatch", body("; integrity sha256:%s cells=99 ports=2 nets=6 insts=4 conns=8 attrs=5")},
	}
	for _, tc := range cases {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				assertStreamEquiv(t, tc.data, ReadOptions{Mode: mode})
			})
		}
	}
}

// TestStreamRecordResync: on a lexically broken record, lenient mode
// resynchronizes at the record boundary and keeps every intact record —
// through every entry point, ReadBytes included.
func TestStreamRecordResync(t *testing.T) {
	src := `(edif e (cell top (interface) (contents (net good1) (net "bad\q") (net good2) (instance i (of top)))) (design top))`
	opts := ReadOptions{Mode: diag.Lenient}
	for _, entry := range []struct {
		name string
		read func() (*netlist.Netlist, []diag.Diagnostic, error)
	}{
		{"ReadBytes", func() (*netlist.Netlist, []diag.Diagnostic, error) { return ReadBytes([]byte(src), opts) }},
		{"ReadStream", func() (*netlist.Netlist, []diag.Diagnostic, error) { return ReadStream(strings.NewReader(src), opts) }},
	} {
		nl, ds, err := entry.read()
		if err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		top, ok := nl.Cell("top")
		if !ok {
			t.Fatalf("%s: salvaged netlist lost cell top", entry.name)
		}
		if got, want := top.NetNames(), []string{"good1", "good2"}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: salvaged nets = %v, want %v", entry.name, got, want)
		}
		if _, ok := top.Instances["i"]; !ok {
			t.Errorf("%s: salvaged netlist lost the instance after the damage", entry.name)
		}
		if diag.Count(ds, diag.Error) != 1 {
			t.Errorf("%s: want exactly one parse diagnostic for the damaged record, got:\n%s", entry.name, diag.Render(ds))
		}
	}
}

// TestStreamBoundedWindow: parsing a design far larger than the scanner
// chunk must keep the parse window near the chunk size — the bounded
// memory claim — while reading back the netlist that was written.
func TestStreamBoundedWindow(t *testing.T) {
	nl := netlist.New()
	leaf, _ := nl.AddCell("leaf")
	leaf.Primitive = true
	leaf.AddPort("a", netlist.Input)
	leaf.AddPort("y", netlist.Output)
	top, _ := nl.AddCell("chip")
	const n = 20000
	for i := 0; i < n; i++ {
		in := fmt.Sprintf("u%05d", i)
		top.AddInstance(in, "leaf")
		top.Connect(in, "a", fmt.Sprintf("net%05d", i))
		top.Connect(in, "y", fmt.Sprintf("net%05d", i+1))
	}
	nl.Top = "chip"
	var buf bytes.Buffer
	if err := Write(&buf, nl, WriteOptions{Trailer: true, Hints: true}); err != nil {
		t.Fatal(err)
	}
	total := buf.Len()

	sn, _, stats, err := ReadStreamStats(bytes.NewReader(buf.Bytes()), ReadOptions{RequireTrailer: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputBytes != int64(total) {
		t.Errorf("InputBytes = %d, want %d", stats.InputBytes, total)
	}
	// The window should hold at most ~two read chunks (a record never
	// spans more); the whole input is an order of magnitude larger.
	if limit := 3 * 32 << 10; stats.MaxWindow > limit {
		t.Errorf("MaxWindow = %d, want <= %d (input %d bytes)", stats.MaxWindow, limit, total)
	}
	if stats.MaxWindow*4 > total {
		t.Errorf("MaxWindow = %d is not small relative to the %d-byte input", stats.MaxWindow, total)
	}

	if diffs := netlist.Compare(nl, sn, netlist.CompareOptions{CompareAttrs: true}); len(diffs) > 0 {
		t.Fatalf("read-back differs from the written design: %d diffs, first: %s", len(diffs), diffs[0])
	}
}
