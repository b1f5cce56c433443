package cd

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/schematic"
)

// assertStreamEquiv reads the same bytes in whole chunks (ReadBytes) and
// byte-at-a-time, which drives the scanner's window-edge refills, and
// asserts identical design, diagnostics and error. The reader's output
// itself is pinned by the reader golden file in internal/experiments.
func assertStreamEquiv(t *testing.T, data []byte, opts ReadOptions) {
	t.Helper()
	bd, bdiags, berr := ReadBytes(data, opts)
	sd, sdiags, serr := ReadStream(iotest.OneByteReader(bytes.NewReader(data)), opts)
	if (berr == nil) != (serr == nil) || (berr != nil && berr.Error() != serr.Error()) {
		t.Fatalf("error mismatch:\nwhole:    %v\nbytewise: %v", berr, serr)
	}
	if !reflect.DeepEqual(bdiags, sdiags) {
		t.Fatalf("diagnostics mismatch:\nwhole:\n%s\nbytewise:\n%s", diag.Render(bdiags), diag.Render(sdiags))
	}
	if !reflect.DeepEqual(bd, sd) {
		t.Fatalf("design mismatch:\nwhole:    %+v\nbytewise: %+v", bd, sd)
	}
}

// TestStreamEquivalenceWritten: a full writer round trip reads back
// identically however the input is chunked, in both modes, with and
// without lint.
func TestStreamEquivalenceWritten(t *testing.T) {
	d := sampleDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
		for _, lint := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/lint=%v", mode, lint), func(t *testing.T) {
				assertStreamEquiv(t, buf.Bytes(), ReadOptions{Mode: mode, Lint: lint})
			})
		}
	}
}

// TestStreamEquivalenceHandwritten holds inputs with semantic damage and
// structural oddities to the same diagnostics however they are chunked.
func TestStreamEquivalenceHandwritten(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{name: "empty", src: ""},
		{name: "comment-only", src: "; nothing\n"},
		{name: "lone-atom", src: "x"},
		{name: "empty-list", src: "()"},
		{name: "not-design", src: "(foo bar)"},
		{name: "design-too-short", src: "(design)"},
		{name: "two-forms", src: "(design a)(design b)"},
		{name: "design-bad-name", src: "(design (x))"},
		{name: "unexpected-atom-item", src: "(design a stray)"},
		{name: "unexpected-empty-item", src: "(design a ())"},
		{name: "unknown-form", src: "(design a (mystery 1))"},
		{name: "grid-no-name", src: "(design a (grid))"},
		{name: "bad-grid", src: `(design a (grid "1/7in"))`},
		{name: "good-grid", src: `(design a (grid "1/10in"))`},
		{name: "globals", src: `(design a (globals "VDD" "GND"))`},
		{name: "bad-global", src: "(design a (globals (x)))"},
		{name: "library-no-name", src: "(design a (library))"},
		{name: "library-bad-name", src: "(design a (library (x) (symbol s v)))"},
		{name: "bad-symbol", src: "(design a (library l (frob)))"},
		{name: "bad-pin", src: "(design a (library l (symbol s v (pin))))"},
		{name: "dup-symbol", src: "(design a (library l (symbol s v) (symbol s v)))"},
		{name: "cell-no-name", src: "(design a (cell))"},
		{name: "cell-bad-name", src: "(design a (cell (x) (port p input)))"},
		{name: "dup-cell", src: "(design a (cell c) (cell c))"},
		{name: "bad-cell-item", src: "(design a (cell c stray))"},
		{name: "unknown-cell-item", src: "(design a (cell c (widget 1)))"},
		{name: "bad-port", src: "(design a (cell c (port p)))"},
		{name: "bad-port-dir", src: "(design a (cell c (port p sideways)))"},
		{name: "empty-page", src: "(design a (cell c (page)))"},
		{name: "page-no-size", src: "(design a (cell c (page 1)))"},
		{name: "page-size", src: "(design a (cell c (page 1 (size 0 0 10 10))))"},
		{name: "page-bad-size", src: "(design a (cell c (page 1 (size 0 0 x 10))))"},
		{name: "page-short-size", src: "(design a (cell c (page 1 (size 0 0) (wire (0 0) (1 1)))))"},
		{name: "bad-page-item", src: "(design a (cell c (page 1 (size 0 0 9 9) stray)))"},
		{name: "unknown-page-item", src: "(design a (cell c (page 1 (size 0 0 9 9) (gizmo))))"},
		{name: "bad-inst", src: "(design a (cell c (page 1 (size 0 0 9 9) (inst))))"},
		{name: "bad-inst-of", src: "(design a (cell c (page 1 (size 0 0 9 9) (inst i (of l)))))"},
		{name: "bad-wire-point", src: "(design a (cell c (page 1 (size 0 0 9 9) (wire (0)))))"},
		{name: "bad-label", src: "(design a (cell c (page 1 (size 0 0 9 9) (label))))"},
		{name: "bad-conn", src: "(design a (cell c (page 1 (size 0 0 9 9) (conn pin))))"},
		{name: "bad-text", src: "(design a (cell c (page 1 (size 0 0 9 9) (text))))"},
		{name: "dangling-conn", src: `(design a (cell c (page 1 (size 0 0 9 9) (conn hier-in "p" (at 1 1) (of l s v) (orient R0)))))`},
		{name: "unbalanced-design", src: "(design a"},
		{name: "unbalanced-page", src: "(design a (cell c (page 1 (size 0 0 9 9) (wire (0 0) (1 1))"},
		{name: "stray-close", src: ") (design a)"},
	}
	for _, tc := range cases {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				assertStreamEquiv(t, []byte(tc.src), ReadOptions{Mode: mode})
			})
		}
	}
}

// TestStreamRecordResync: on a lexically broken record, lenient mode
// resynchronizes at the record boundary and keeps every intact record,
// and a stray toplevel close paren costs only the paren — through every
// entry point, ReadBytes included.
func TestStreamRecordResync(t *testing.T) {
	src := `(design a (cell c (page 1 (size 0 0 9 9) (wire (0 0) (4 0)) (label "bad\q" (at 1 1)) (text "ok" (at 2 2)))))`
	stray := ") (design a (cell c))"
	opts := ReadOptions{Mode: diag.Lenient}
	for _, entry := range []struct {
		name string
		read func(string) (*schematic.Design, []diag.Diagnostic, error)
	}{
		{"ReadBytes", func(s string) (*schematic.Design, []diag.Diagnostic, error) { return ReadBytes([]byte(s), opts) }},
		{"ReadStream", func(s string) (*schematic.Design, []diag.Diagnostic, error) {
			return ReadStream(strings.NewReader(s), opts)
		}},
	} {
		d, ds, err := entry.read(src)
		if err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		pg := d.Cells["c"].Pages[0]
		if len(pg.Wires) != 1 || len(pg.Texts) != 1 {
			t.Errorf("%s: salvage lost records: wires=%d texts=%d", entry.name, len(pg.Wires), len(pg.Texts))
		}
		if diag.Count(ds, diag.Error) != 1 {
			t.Errorf("%s: want exactly one parse diagnostic, got:\n%s", entry.name, diag.Render(ds))
		}
		d2, _, err := entry.read(stray)
		if err != nil || d2 == nil || d2.Cells["c"] == nil {
			t.Errorf("%s: salvage after stray ) failed: d=%v err=%v", entry.name, d2, err)
		}
	}
}

// TestStreamBoundedWindow: a schematic far larger than the scanner chunk
// parses with the window held near the chunk size.
func TestStreamBoundedWindow(t *testing.T) {
	d := schematic.NewDesign("big", geom.GridSixteenth)
	c := mustCell(d, "top")
	pg := c.AddPage(geom.R(0, 0, 1<<14, 1<<14))
	const n = 20000
	for i := 0; i < n; i++ {
		pg.Wires = append(pg.Wires, &schematic.Wire{Points: []geom.Point{
			geom.Pt(i, 0), geom.Pt(i, 100),
		}})
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	total := buf.Len()

	sd, _, stats, err := ReadStreamStats(bytes.NewReader(buf.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputBytes != int64(total) {
		t.Errorf("InputBytes = %d, want %d", stats.InputBytes, total)
	}
	if limit := 3 * 32 << 10; stats.MaxWindow > limit {
		t.Errorf("MaxWindow = %d, want <= %d (input %d bytes)", stats.MaxWindow, limit, total)
	}
	if stats.MaxWindow*4 > total {
		t.Errorf("MaxWindow = %d is not small relative to the %d-byte input", stats.MaxWindow, total)
	}
	if got := len(sd.Cells["top"].Pages[0].Wires); got != n {
		t.Errorf("wires = %d, want %d", got, n)
	}
}
