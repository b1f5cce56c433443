// Package cd serializes schematic designs in the Cadence-like dialect's
// native file format: an s-expression database in the spirit of a
// SKILL-built tool. The reader is deliberately strict — it enforces the
// dialect's explicit bus syntax and connector requirements at import time,
// the way the paper's target tool rejected data the source tool was happy
// with.
package cd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
)

// ErrFormat reports malformed cd input.
var ErrFormat = errors.New("cd: format error")

// Dialect is the Cadence-like dialect description.
var Dialect = schematic.CD

// Write serializes the design as s-expressions.
func Write(w io.Writer, d *schematic.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "(design %s\n  (grid %s)\n", quoteSym(d.Name), strconv.Quote(d.Grid.Name))
	if len(d.Globals) > 0 {
		fmt.Fprintf(bw, "  (globals")
		for _, g := range d.Globals {
			fmt.Fprintf(bw, " %s", strconv.Quote(g))
		}
		fmt.Fprintf(bw, ")\n")
	}
	libNames := make([]string, 0, len(d.Libraries))
	for n := range d.Libraries {
		libNames = append(libNames, n)
	}
	sort.Strings(libNames)
	for _, ln := range libNames {
		lib := d.Libraries[ln]
		fmt.Fprintf(bw, "  (library %s\n", quoteSym(ln))
		keys := make([]string, 0, len(lib.Symbols))
		for k := range lib.Symbols {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := lib.Symbols[k]
			fmt.Fprintf(bw, "    (symbol %s %s (body %d %d %d %d)\n", quoteSym(s.Name), quoteSym(s.View),
				s.Body.Min.X, s.Body.Min.Y, s.Body.Max.X, s.Body.Max.Y)
			for _, p := range s.Pins {
				fmt.Fprintf(bw, "      (pin %s %d %d %s)\n", quoteSym(p.Name), p.Pos.X, p.Pos.Y, p.Dir)
			}
			for _, pr := range s.Props {
				writeProp(bw, "      ", pr)
			}
			fmt.Fprintf(bw, "    )\n")
		}
		fmt.Fprintf(bw, "  )\n")
	}
	for _, cn := range d.CellNames() {
		c := d.Cells[cn]
		fmt.Fprintf(bw, "  (cell %s\n", quoteSym(cn))
		for _, p := range c.Ports {
			fmt.Fprintf(bw, "    (port %s %s)\n", quoteSym(p.Name), p.Dir)
		}
		for _, pg := range c.Pages {
			fmt.Fprintf(bw, "    (page %d (size %d %d %d %d)\n", pg.Index,
				pg.Size.Min.X, pg.Size.Min.Y, pg.Size.Max.X, pg.Size.Max.Y)
			for _, in := range pg.InstanceNames() {
				inst := pg.Instances[in]
				fmt.Fprintf(bw, "      (inst %s (of %s %s %s) (at %d %d) (orient %s)\n",
					quoteSym(inst.Name), quoteSym(inst.Sym.Lib), quoteSym(inst.Sym.Name), quoteSym(inst.Sym.View),
					inst.Placement.Offset.X, inst.Placement.Offset.Y, inst.Placement.Orient)
				for _, pr := range inst.Props {
					writeProp(bw, "        ", pr)
				}
				fmt.Fprintf(bw, "      )\n")
			}
			for _, wr := range pg.Wires {
				fmt.Fprintf(bw, "      (wire")
				for _, pt := range wr.Points {
					fmt.Fprintf(bw, " (%d %d)", pt.X, pt.Y)
				}
				fmt.Fprintf(bw, ")\n")
			}
			for _, l := range pg.Labels {
				fmt.Fprintf(bw, "      (label %s (at %d %d) (size %d) (offset %d %d))\n",
					strconv.Quote(l.Text), l.At.X, l.At.Y, l.Size, l.Offset.X, l.Offset.Y)
			}
			for _, cx := range pg.Conns {
				fmt.Fprintf(bw, "      (conn %s %s (at %d %d) (of %s %s %s) (orient %s))\n",
					cx.Kind, strconv.Quote(cx.Name), cx.At.X, cx.At.Y,
					quoteSym(cx.Sym.Lib), quoteSym(cx.Sym.Name), quoteSym(cx.Sym.View), cx.Orient)
			}
			for _, tx := range pg.Texts {
				fmt.Fprintf(bw, "      (text %s (at %d %d) (size %d) (baseline %d))\n",
					strconv.Quote(tx.S), tx.At.X, tx.At.Y, tx.SizePts, tx.BaselineOffset)
			}
			fmt.Fprintf(bw, "    )\n")
		}
		fmt.Fprintf(bw, "  )\n")
	}
	fmt.Fprintf(bw, ")\n")
	return bw.Flush()
}

func writeProp(w io.Writer, indent string, p schematic.Property) {
	vis := ""
	if p.Visible {
		vis = " visible"
	}
	fmt.Fprintf(w, "%s(prop %s %s (at %d %d) (size %d)%s)\n", indent,
		quoteSym(p.Name), strconv.Quote(p.Value), p.At.X, p.At.Y, p.Size, vis)
}

// quoteSym emits an identifier, quoting only when necessary.
func quoteSym(s string) string {
	if s == "" || strings.ContainsAny(s, " ()\"';\t\n") {
		return strconv.Quote(s)
	}
	return s
}

// ReadOptions controls strictness.
type ReadOptions struct {
	// Lint runs the CD dialect checker after parsing and fails the read on
	// violations — modeling the target tool rejecting nonconforming data.
	Lint bool
	// Mode: diag.Strict (default) aborts at the first malformed record;
	// diag.Lenient quarantines the record and continues.
	Mode diag.Mode
	// Source names the input in diagnostics ("" = "<input>").
	Source string
}

// Read parses a design from s-expression form (strict-mode entry point).
func Read(r io.Reader, opts ReadOptions) (*schematic.Design, error) {
	d, _, err := ReadWithDiagnostics(r, opts)
	return d, err
}

// ReadWithDiagnostics parses under the given policy. Quarantine granularity
// is the record: a malformed symbol, port, instance, wire, label, connector
// or text form is skipped with a position-carrying diagnostic and the rest
// of the design is still imported.
func ReadWithDiagnostics(r io.Reader, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return ReadBytes(data, opts)
}

// ReadBytes is ReadWithDiagnostics over an in-memory input.
func ReadBytes(data []byte, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	rd := &cdReader{src: string(data), col: col}
	d, err := rd.read(opts.Lint)
	if err != nil {
		return nil, col.Diags, err
	}
	if d == nil {
		// The toplevel (design ...) form itself was quarantined; there is
		// nothing to recover.
		return nil, col.Diags, fmt.Errorf("%w: no usable (design ...) form", ErrFormat)
	}
	if err := schematic.Reconcile(d, col); err != nil {
		return nil, col.Diags, err
	}
	if opts.Mode == diag.Strict {
		if err := col.Err(); err != nil {
			return nil, col.Diags, err
		}
	}
	return d, col.Diags, nil
}

type cdReader struct {
	src string
	col *diag.Collector
	// sc is set by the streaming reader; positions then resolve against
	// the scanner's window instead of a full-input buffer.
	sc *al.Scanner
}

func (rd *cdReader) pos(n al.Node) diag.Pos {
	return rd.posAt(n.Off())
}

func (rd *cdReader) posAt(off int) diag.Pos {
	if rd.sc != nil {
		if off < 0 {
			return diag.NoPos
		}
		if line, col, ok := rd.sc.LineColAt(off); ok {
			return diag.Pos{Offset: off, Line: line, Col: col}
		}
		return diag.Pos{Offset: off}
	}
	return diag.LineCol(rd.src, off)
}

func (rd *cdReader) read(lint bool) (*schematic.Design, error) {
	var ix al.Index
	if rd.col.Mode == diag.Lenient {
		var aborted error
		ix.ParseRecover(rd.src, func(off int, msg string) {
			if aborted == nil {
				aborted = rd.col.Errorf("parse", diag.LineCol(rd.src, off), "%s", msg)
			}
		})
		if aborted != nil {
			return nil, aborted
		}
	} else if err := ix.Parse(rd.src); err != nil {
		return nil, rd.col.Errorf("parse", diag.NoPos, "%v", err)
	}
	if ix.Forms() != 1 {
		return nil, rd.col.Errorf("parse", diag.NoPos, "expected one (design ...) form, got %d", ix.Forms())
	}
	top := ix.First()
	if top.Len() < 2 || !top.Kid(0).IsSym("design") {
		return nil, rd.col.Errorf("parse", rd.pos(top), "missing (design ...) form")
	}
	name, err := symOrStr(top.Kid(1))
	if err != nil {
		return nil, rd.col.Errorf("record", rd.pos(top.Kid(1)), "design name: %v", err)
	}
	d := schematic.NewDesign(name, geom.GridSixteenth)
	for it := top.Kid(2); it.Valid(); it = it.Next() {
		if err := rd.readDesignItem(d, it); err != nil {
			return nil, err
		}
	}
	if lint {
		if vs := schematic.CD.Check(d); len(vs) > 0 {
			if err := rd.col.Errorf("lint", diag.NoPos, "dialect violations: %d (first: %s)", len(vs), vs[0]); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// readDesignItem handles one direct child of the (design ...) form.
func (rd *cdReader) readDesignItem(d *schematic.Design, l al.Node) error {
	if l.Len() == 0 {
		return rd.col.Errorf("record", rd.pos(l), "unexpected item %s", l.Repr())
	}
	head, _ := l.Kid(0).Sym()
	switch head {
	case "grid":
		err := func() error {
			if l.Len() < 2 {
				return fmt.Errorf("grid needs a name")
			}
			gname, err := symOrStr(l.Kid(1))
			if err != nil {
				return fmt.Errorf("grid: %v", err)
			}
			switch gname {
			case geom.GridTenth.Name:
				d.Grid = geom.GridTenth
			case geom.GridSixteenth.Name:
				d.Grid = geom.GridSixteenth
			default:
				return fmt.Errorf("unknown grid %q", gname)
			}
			return nil
		}()
		if err != nil {
			return rd.col.Errorf("record", rd.pos(l), "%v", err)
		}
	case "globals":
		for g := l.Kid(1); g.Valid(); g = g.Next() {
			s, err := symOrStr(g)
			if err != nil {
				if aerr := rd.col.Errorf("record", rd.pos(g), "global: %v", err); aerr != nil {
					return aerr
				}
				continue
			}
			d.Globals = append(d.Globals, s)
		}
	case "library":
		return rd.readLibrary(d, l)
	case "cell":
		return rd.readCell(d, l)
	default:
		return rd.col.Errorf("record", rd.pos(l), "unknown form %q", head)
	}
	return nil
}

func (rd *cdReader) readLibrary(d *schematic.Design, l al.Node) error {
	if l.Len() < 2 {
		return rd.col.Errorf("record", rd.pos(l), "library needs a name")
	}
	name, err := symOrStr(l.Kid(1))
	if err != nil {
		return rd.col.Errorf("record", rd.pos(l.Kid(1)), "library name: %v", err)
	}
	lib := d.EnsureLibrary(name)
	for it := l.Kid(2); it.Valid(); it = it.Next() {
		if err := rd.readLibraryItem(lib, it); err != nil {
			return err
		}
	}
	return nil
}

// readLibraryItem parses one (symbol ...) record into the library.
func (rd *cdReader) readLibraryItem(lib *schematic.Library, it al.Node) error {
	sym, err := parseSymbol(it)
	if err != nil {
		return rd.col.Errorf("record", rd.pos(it), "%v", err)
	}
	if err := lib.AddSymbol(sym); err != nil {
		return rd.col.Errorf("record", rd.pos(it), "%v", err)
	}
	return nil
}

// parseSymbol parses one (symbol name view ...) form; errors are plain
// (un-wrapped) so the caller can attach a position.
func parseSymbol(sl al.Node) (*schematic.Symbol, error) {
	if sl.Len() < 3 || !sl.Kid(0).IsSym("symbol") {
		return nil, fmt.Errorf("expected (symbol ...), got %s", sl.Repr())
	}
	sname, err1 := symOrStr(sl.Kid(1))
	sview, err2 := symOrStr(sl.Kid(2))
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("symbol name/view")
	}
	sym := &schematic.Symbol{Name: sname, View: sview}
	for ssl := sl.Kid(3); ssl.Valid(); ssl = ssl.Next() {
		if ssl.Len() == 0 {
			return nil, fmt.Errorf("bad symbol item %s", ssl.Repr())
		}
		h, _ := ssl.Kid(0).Sym()
		switch h {
		case "body":
			xs, err := nums(ssl, 1, ssl.Len(), 4)
			if err != nil {
				return nil, fmt.Errorf("body: %v", err)
			}
			sym.Body = geom.R(xs[0], xs[1], xs[2], xs[3])
		case "pin":
			if ssl.Len() != 5 {
				return nil, fmt.Errorf("pin wants (pin name x y dir)")
			}
			pname, err := symOrStr(ssl.Kid(1))
			if err != nil {
				return nil, fmt.Errorf("pin name: %v", err)
			}
			xs, err := nums(ssl, 2, 4, 2)
			if err != nil {
				return nil, fmt.Errorf("pin pos: %v", err)
			}
			dname, err := symOrStr(ssl.Kid(4))
			if err != nil {
				return nil, fmt.Errorf("pin dir: %v", err)
			}
			dir, err := netlist.ParsePortDir(dname)
			if err != nil {
				return nil, err
			}
			sym.Pins = append(sym.Pins, schematic.SymbolPin{Name: pname, Pos: geom.Pt(xs[0], xs[1]), Dir: dir})
		case "prop":
			p, err := readProp(ssl)
			if err != nil {
				return nil, err
			}
			sym.Props = append(sym.Props, p)
		default:
			return nil, fmt.Errorf("unknown symbol item %q", h)
		}
	}
	return sym, nil
}

func (rd *cdReader) readCell(d *schematic.Design, l al.Node) error {
	if l.Len() < 2 {
		return rd.col.Errorf("record", rd.pos(l), "cell needs a name")
	}
	name, err := symOrStr(l.Kid(1))
	if err != nil {
		return rd.col.Errorf("record", rd.pos(l.Kid(1)), "cell name: %v", err)
	}
	cell, err := d.AddCell(name)
	if err != nil {
		return rd.col.Errorf("record", rd.pos(l), "%v", err)
	}
	for it := l.Kid(2); it.Valid(); it = it.Next() {
		if err := rd.readCellItem(cell, it); err != nil {
			return err
		}
	}
	return nil
}

// readCellItem handles one direct child of a (cell ...) form.
func (rd *cdReader) readCellItem(cell *schematic.Cell, cl al.Node) error {
	if cl.Len() == 0 {
		return rd.col.Errorf("record", rd.pos(cl), "bad cell item %s", cl.Repr())
	}
	h, _ := cl.Kid(0).Sym()
	switch h {
	case "port":
		err := func() error {
			if cl.Len() != 3 {
				return fmt.Errorf("port wants (port name dir)")
			}
			pname, err1 := symOrStr(cl.Kid(1))
			dname, err2 := symOrStr(cl.Kid(2))
			if err1 != nil || err2 != nil {
				return fmt.Errorf("port fields")
			}
			dir, err := netlist.ParsePortDir(dname)
			if err != nil {
				return err
			}
			cell.Ports = append(cell.Ports, netlist.Port{Name: pname, Dir: dir})
			return nil
		}()
		if err != nil {
			return rd.col.Errorf("record", rd.pos(cl), "%v", err)
		}
	case "page":
		return rd.readPage(cell, cl)
	default:
		return rd.col.Errorf("record", rd.pos(cl), "unknown cell item %q", h)
	}
	return nil
}

func (rd *cdReader) readPage(cell *schematic.Cell, l al.Node) error {
	var size geom.Rect
	body := l.Kid(2) // (page index body...); absent for a bare (page)
	if body.Len() == 5 && body.Kid(0).IsSym("size") {
		xs, err := nums(body, 1, 5, 4)
		if err != nil {
			if aerr := rd.col.Errorf("record", rd.pos(body), "page size: %v", err); aerr != nil {
				return aerr
			}
		} else {
			size = geom.R(xs[0], xs[1], xs[2], xs[3])
		}
		body = body.Next()
	}
	pg := cell.AddPage(size)
	for it := body; it.Valid(); it = it.Next() {
		if err := rd.readPageItem(pg, it); err != nil {
			return err
		}
	}
	return nil
}

// readPageItem parses one page record (inst, wire, label, conn, text).
func (rd *cdReader) readPageItem(pg *schematic.Page, il al.Node) error {
	if il.Len() == 0 {
		return rd.col.Errorf("record", rd.pos(il), "bad page item %s", il.Repr())
	}
	h, _ := il.Kid(0).Sym()
	var err error
	switch h {
	case "inst":
		var inst *schematic.Instance
		inst, err = parseInst(il)
		if err == nil {
			err = pg.AddInstance(inst)
		}
	case "wire":
		var w *schematic.Wire
		w, err = parseWire(il)
		if err == nil {
			pg.Wires = append(pg.Wires, w)
		}
	case "label":
		var lb *schematic.Label
		lb, err = parseLabel(il)
		if err == nil {
			pg.Labels = append(pg.Labels, lb)
		}
	case "conn":
		var cx *schematic.Connector
		cx, err = parseConn(il)
		if err == nil {
			pg.Conns = append(pg.Conns, cx)
		}
	case "text":
		var tx *schematic.Text
		tx, err = parseText(il)
		if err == nil {
			pg.Texts = append(pg.Texts, tx)
		}
	default:
		err = fmt.Errorf("unknown page item %q", h)
	}
	if err != nil {
		return rd.col.Errorf("record", rd.pos(il), "%v", err)
	}
	return nil
}

func parseInst(il al.Node) (*schematic.Instance, error) {
	if il.Len() < 2 {
		return nil, fmt.Errorf("inst needs a name")
	}
	inst := &schematic.Instance{}
	iname, err := symOrStr(il.Kid(1))
	if err != nil {
		return nil, fmt.Errorf("inst name: %v", err)
	}
	inst.Name = iname
	for sl := il.Kid(2); sl.Valid(); sl = sl.Next() {
		if sl.Len() == 0 {
			return nil, fmt.Errorf("bad inst item %s", sl.Repr())
		}
		sh, _ := sl.Kid(0).Sym()
		switch sh {
		case "of":
			if sl.Len() != 4 {
				return nil, fmt.Errorf("of wants lib name view")
			}
			lib, e1 := symOrStr(sl.Kid(1))
			nm, e2 := symOrStr(sl.Kid(2))
			vw, e3 := symOrStr(sl.Kid(3))
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, fmt.Errorf("of fields")
			}
			inst.Sym = schematic.SymbolKey{Lib: lib, Name: nm, View: vw}
		case "at":
			xs, err := nums(sl, 1, sl.Len(), 2)
			if err != nil {
				return nil, fmt.Errorf("at: %v", err)
			}
			inst.Placement.Offset = geom.Pt(xs[0], xs[1])
		case "orient":
			if sl.Len() != 2 {
				return nil, fmt.Errorf("orient wants a name")
			}
			oname, err := symOrStr(sl.Kid(1))
			if err != nil {
				return nil, fmt.Errorf("orient: %v", err)
			}
			o, err := geom.ParseOrientation(oname)
			if err != nil {
				return nil, err
			}
			inst.Placement.Orient = o
		case "prop":
			p, err := readProp(sl)
			if err != nil {
				return nil, err
			}
			inst.Props = append(inst.Props, p)
		default:
			return nil, fmt.Errorf("unknown inst item %q", sh)
		}
	}
	return inst, nil
}

func parseWire(il al.Node) (*schematic.Wire, error) {
	var pts []geom.Point
	if n := il.Len() - 1; n > 0 {
		pts = make([]geom.Point, 0, n)
	}
	for pl := il.Kid(1); pl.Valid(); pl = pl.Next() {
		if pl.Len() != 2 {
			return nil, fmt.Errorf("wire point %s", pl.Repr())
		}
		xs, err := nums(pl, 0, 2, 2)
		if err != nil {
			return nil, fmt.Errorf("wire point: %v", err)
		}
		pts = append(pts, geom.Pt(xs[0], xs[1]))
	}
	return &schematic.Wire{Points: pts}, nil
}

func parseLabel(il al.Node) (*schematic.Label, error) {
	if il.Len() < 2 {
		return nil, fmt.Errorf("label needs text")
	}
	lb := &schematic.Label{}
	txt, err := symOrStr(il.Kid(1))
	if err != nil {
		return nil, fmt.Errorf("label text: %v", err)
	}
	lb.Text = txt
	for sl := il.Kid(2); sl.Valid(); sl = sl.Next() {
		if sl.Len() == 0 {
			continue
		}
		sh, _ := sl.Kid(0).Sym()
		switch sh {
		case "at":
			xs, err := nums(sl, 1, sl.Len(), 2)
			if err != nil {
				return nil, fmt.Errorf("label at: %v", err)
			}
			lb.At = geom.Pt(xs[0], xs[1])
		case "size":
			xs, err := nums(sl, 1, sl.Len(), 1)
			if err != nil {
				return nil, fmt.Errorf("label size: %v", err)
			}
			lb.Size = xs[0]
		case "offset":
			xs, err := nums(sl, 1, sl.Len(), 2)
			if err != nil {
				return nil, fmt.Errorf("label offset: %v", err)
			}
			lb.Offset = geom.Pt(xs[0], xs[1])
		}
	}
	return lb, nil
}

func parseConn(il al.Node) (*schematic.Connector, error) {
	if il.Len() < 3 {
		return nil, fmt.Errorf("conn wants kind and name")
	}
	kname, err := symOrStr(il.Kid(1))
	if err != nil {
		return nil, fmt.Errorf("conn kind: %v", err)
	}
	kind, err := schematic.ParseConnKind(kname)
	if err != nil {
		return nil, err
	}
	cname, err := symOrStr(il.Kid(2))
	if err != nil {
		return nil, fmt.Errorf("conn name: %v", err)
	}
	cx := &schematic.Connector{Kind: kind, Name: cname}
	for sl := il.Kid(3); sl.Valid(); sl = sl.Next() {
		if sl.Len() == 0 {
			continue
		}
		sh, _ := sl.Kid(0).Sym()
		switch sh {
		case "at":
			xs, err := nums(sl, 1, sl.Len(), 2)
			if err != nil {
				return nil, fmt.Errorf("conn at: %v", err)
			}
			cx.At = geom.Pt(xs[0], xs[1])
		case "of":
			if sl.Len() != 4 {
				return nil, fmt.Errorf("conn of wants 3 parts")
			}
			lib, e1 := symOrStr(sl.Kid(1))
			nm, e2 := symOrStr(sl.Kid(2))
			vw, e3 := symOrStr(sl.Kid(3))
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, fmt.Errorf("conn of fields")
			}
			cx.Sym = schematic.SymbolKey{Lib: lib, Name: nm, View: vw}
		case "orient":
			if sl.Len() != 2 {
				return nil, fmt.Errorf("conn orient wants a name")
			}
			oname, err := symOrStr(sl.Kid(1))
			if err != nil {
				return nil, fmt.Errorf("conn orient: %v", err)
			}
			o, err := geom.ParseOrientation(oname)
			if err != nil {
				return nil, err
			}
			cx.Orient = o
		}
	}
	return cx, nil
}

func parseText(il al.Node) (*schematic.Text, error) {
	if il.Len() < 2 {
		return nil, fmt.Errorf("text needs a string")
	}
	tx := &schematic.Text{}
	s, err := symOrStr(il.Kid(1))
	if err != nil {
		return nil, fmt.Errorf("text: %v", err)
	}
	tx.S = s
	for sl := il.Kid(2); sl.Valid(); sl = sl.Next() {
		if sl.Len() == 0 {
			continue
		}
		sh, _ := sl.Kid(0).Sym()
		switch sh {
		case "at":
			xs, err := nums(sl, 1, sl.Len(), 2)
			if err != nil {
				return nil, fmt.Errorf("text at: %v", err)
			}
			tx.At = geom.Pt(xs[0], xs[1])
		case "size":
			xs, err := nums(sl, 1, sl.Len(), 1)
			if err != nil {
				return nil, fmt.Errorf("text size: %v", err)
			}
			tx.SizePts = xs[0]
		case "baseline":
			xs, err := nums(sl, 1, sl.Len(), 1)
			if err != nil {
				return nil, fmt.Errorf("text baseline: %v", err)
			}
			tx.BaselineOffset = xs[0]
		}
	}
	return tx, nil
}

func readProp(l al.Node) (schematic.Property, error) {
	var p schematic.Property
	if l.Len() < 3 {
		return p, fmt.Errorf("prop wants name and value")
	}
	name, err := symOrStr(l.Kid(1))
	if err != nil {
		return p, fmt.Errorf("prop name: %v", err)
	}
	val, err := symOrStr(l.Kid(2))
	if err != nil {
		return p, fmt.Errorf("prop value: %v", err)
	}
	p.Name, p.Value = name, val
	for sub := l.Kid(3); sub.Valid(); sub = sub.Next() {
		if !sub.IsList() {
			if sub.IsSym("visible") {
				p.Visible = true
			}
			continue
		}
		if sub.Len() == 0 {
			continue
		}
		sh, _ := sub.Kid(0).Sym()
		switch sh {
		case "at":
			xs, err := nums(sub, 1, sub.Len(), 2)
			if err != nil {
				return p, fmt.Errorf("prop at: %v", err)
			}
			p.At = geom.Pt(xs[0], xs[1])
		case "size":
			xs, err := nums(sub, 1, sub.Len(), 1)
			if err != nil {
				return p, fmt.Errorf("prop size: %v", err)
			}
			p.Size = xs[0]
		}
	}
	return p, nil
}

func symOrStr(n al.Node) (string, error) {
	if s, ok := n.Sym(); ok {
		return s, nil
	}
	if s, ok := n.Str(); ok {
		return s, nil
	}
	if v, ok := n.Num(); ok {
		return al.Num(v).Repr(), nil
	}
	return "", fmt.Errorf("expected name, got %s", n.Repr())
}

// nums decodes elements [from, to) of list l as exactly want (at most 4)
// integers.
func nums(l al.Node, from, to, want int) ([4]int, error) {
	var out [4]int
	if to-from != want {
		return out, fmt.Errorf("want %d numbers, got %d", want, to-from)
	}
	k := l.Kid(from)
	for i := 0; i < want; i, k = i+1, k.Next() {
		num, ok := k.Num()
		if !ok {
			return out, fmt.Errorf("not a number: %s", k.Repr())
		}
		out[i] = int(num)
	}
	return out, nil
}
