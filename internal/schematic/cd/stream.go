// The cd reader.
//
// ReadStream parses the s-expression database without materializing the
// input: library symbols and page records — the unbounded parts of a
// large schematic — are parsed one at a time from an al.Scanner window
// and the consumed bytes discarded at each record boundary, so peak
// memory is bounded by one record plus one read chunk regardless of
// design size.
//
// Diagnostics come in document order. Strict mode aborts on the first
// one; lenient mode quarantines the bad record and, on a lexically broken
// record, resynchronizes at the record boundary and salvages every other
// record. The end-of-input checks (form count, missing (design ...) form,
// lint, then dangling references) come last. The reader golden file in
// internal/experiments pins this order.
package cd

import (
	"fmt"
	"io"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/schematic"
)

// StreamStats reports the memory discipline a streaming parse achieved.
type StreamStats struct {
	// MaxWindow is the peak parse-window size in bytes.
	MaxWindow int
	// InputBytes is the total input length.
	InputBytes int64
}

// ReadStream parses a design record by record, in bounded memory, under
// the given policy.
func ReadStream(r io.Reader, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, error) {
	d, diags, _, err := ReadStreamStats(r, opts)
	return d, diags, err
}

// ReadStreamStats is ReadStream, additionally reporting streaming stats.
func ReadStreamStats(r io.Reader, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, StreamStats, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	cr := &countReader{r: r}
	sc := al.NewScanner(cr)
	rd := &cdReader{col: col, sc: sc}
	st := &cdStream{rd: rd, sc: sc}
	d, err := st.run(opts.Lint)
	stats := StreamStats{MaxWindow: sc.MaxWindow(), InputBytes: cr.n}
	if rerr := sc.Err(); rerr != nil {
		return nil, col.Diags, stats, rerr
	}
	if err != nil {
		return nil, col.Diags, stats, err
	}
	if d == nil {
		return nil, col.Diags, stats, fmt.Errorf("%w: no usable (design ...) form", ErrFormat)
	}
	if err := schematic.Reconcile(d, col); err != nil {
		return nil, col.Diags, stats, err
	}
	if opts.Mode == diag.Strict {
		if cerr := col.Err(); cerr != nil {
			return nil, col.Diags, stats, cerr
		}
	}
	return d, col.Diags, stats, nil
}

// cdStream is the state of one streaming parse.
type cdStream struct {
	rd *cdReader
	sc *al.Scanner
	ix al.Index // the current record; its node storage is reused

	designPos  diag.Pos // position of the (design ...) open, captured eagerly
	missing    bool     // first form parsed but is not a usable (design ...) form
	missingPos diag.Pos
}

func (st *cdStream) run(lint bool) (*schematic.Design, error) {
	rd, sc := st.rd, st.sc
	nforms := 0
	var d *schematic.Design
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			// Lexical error; the scanner only surfaces these at true end
			// of input, so resynchronizing consumes the remainder.
			if rd.col.Mode == diag.Strict {
				return nil, rd.col.Errorf("parse", diag.NoPos, "%v", err)
			}
			if aerr := rd.col.Errorf("parse", rd.posAt(off), "%s", err.Error()); aerr != nil {
				return nil, aerr
			}
			sc.Resync()
			continue
		}
		if tok == "" {
			break
		}
		if tok == ")" {
			// Stray toplevel close paren: diagnosed and skipped; the form
			// after it is kept.
			perr := fmt.Errorf("%w: offset %d: unexpected )", al.ErrParse, off)
			if rd.col.Mode == diag.Strict {
				return nil, rd.col.Errorf("parse", diag.NoPos, "%v", perr)
			}
			if aerr := rd.col.Errorf("parse", rd.posAt(off), "%s", perr.Error()); aerr != nil {
				return nil, aerr
			}
			sc.SkipForm()
			sc.Compact()
			continue
		}
		if nforms == 0 && tok == "(" {
			if head, herr := sc.PeekInside(); herr == nil && head == "design" {
				nforms++
				var aerr error
				d, aerr = st.walkDesign(off)
				if aerr != nil {
					return nil, aerr
				}
				sc.Compact()
				continue
			}
		}
		// Some other toplevel form: it only matters for the form count
		// (and, if it is the first, for the missing-design position).
		pos := rd.posAt(off)
		if _, err := sc.ReadIndexed(&st.ix); err != nil {
			if rd.col.Mode == diag.Strict {
				return nil, rd.col.Errorf("parse", diag.NoPos, "%v", err)
			}
			if aerr := rd.col.Errorf("parse", pos, "%s", err.Error()); aerr != nil {
				return nil, aerr
			}
			sc.Resync()
			sc.Compact()
			continue
		}
		nforms++
		if nforms == 1 {
			st.missing = true
			st.missingPos = pos
		}
		sc.Compact()
	}
	if nforms != 1 {
		return nil, rd.col.Errorf("parse", diag.NoPos, "expected one (design ...) form, got %d", nforms)
	}
	if st.missing {
		return nil, rd.col.Errorf("parse", st.missingPos, "missing (design ...) form")
	}
	if d != nil && lint {
		if vs := schematic.CD.Check(d); len(vs) > 0 {
			if err := rd.col.Errorf("lint", diag.NoPos, "dialect violations: %d (first: %s)", len(vs), vs[0]); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// walkDesign streams through one (design name item...) form.
func (st *cdStream) walkDesign(openOff int) (*schematic.Design, error) {
	rd, sc := st.rd, st.sc
	st.designPos = rd.posAt(openOff)
	sc.Next() // (
	sc.Next() // design
	tok, _, err := sc.Peek()
	if err != nil {
		return nil, st.recordParseErr(openOff, err)
	}
	switch tok {
	case "":
		return nil, st.unterminated(openOff)
	case ")":
		// (design) — too short to be usable.
		sc.Next()
		st.missing = true
		st.missingPos = st.designPos
		return nil, nil
	}
	nameN, err := sc.ReadIndexed(&st.ix)
	if err != nil {
		if aerr := st.recordParseErr(openOff, err); aerr != nil {
			return nil, aerr
		}
		sc.SkipToClose()
		return nil, nil
	}
	name, err := symOrStr(nameN)
	if err != nil {
		// A bad design name quarantines the whole form.
		if aerr := rd.col.Errorf("record", rd.pos(nameN), "design name: %v", err); aerr != nil {
			return nil, aerr
		}
		sc.SkipToClose()
		return nil, nil
	}
	d := schematic.NewDesign(name, geom.GridSixteenth)
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return d, st.recordParseErr(off, err)
		}
		switch tok {
		case "":
			return d, st.unterminated(openOff)
		case ")":
			sc.Next()
			return d, nil
		}
		if tok == "(" {
			if head, herr := sc.PeekInside(); herr == nil {
				switch head {
				case "library":
					if aerr := st.walkLibrary(d, off); aerr != nil {
						return nil, aerr
					}
					sc.Compact()
					continue
				case "cell":
					if aerr := st.walkCell(d, off); aerr != nil {
						return nil, aerr
					}
					sc.Compact()
					continue
				}
			}
		}
		n, err := sc.ReadIndexed(&st.ix)
		if err != nil {
			if aerr := st.recordParseErr(off, err); aerr != nil {
				return nil, aerr
			}
			sc.Compact()
			continue
		}
		if aerr := rd.readDesignItem(d, n); aerr != nil {
			return nil, aerr
		}
		sc.Compact()
	}
}

// walkLibrary streams through one (library name symbol...) form, one
// symbol record at a time.
func (st *cdStream) walkLibrary(d *schematic.Design, openOff int) error {
	rd, sc := st.rd, st.sc
	openPos := rd.posAt(openOff)
	sc.Next() // (
	sc.Next() // library
	tok, _, err := sc.Peek()
	if err != nil {
		return st.recordParseErr(openOff, err)
	}
	switch tok {
	case "":
		return st.unterminated(openOff)
	case ")":
		sc.Next()
		return rd.col.Errorf("record", openPos, "library needs a name")
	}
	nameN, err := sc.ReadIndexed(&st.ix)
	if err != nil {
		if aerr := st.recordParseErr(openOff, err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	name, err := symOrStr(nameN)
	if err != nil {
		// A bad library name quarantines the whole library.
		if aerr := rd.col.Errorf("record", rd.pos(nameN), "library name: %v", err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	lib := d.EnsureLibrary(name)
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return st.recordParseErr(off, err)
		}
		switch tok {
		case "":
			return st.unterminated(openOff)
		case ")":
			sc.Next()
			return nil
		}
		n, err := sc.ReadIndexed(&st.ix)
		if err != nil {
			if aerr := st.recordParseErr(off, err); aerr != nil {
				return aerr
			}
			sc.Compact()
			continue
		}
		if aerr := rd.readLibraryItem(lib, n); aerr != nil {
			return aerr
		}
		sc.Compact()
	}
}

// walkCell streams through one (cell name item...) form; pages are walked
// record by record, everything else goes through the shared handler.
func (st *cdStream) walkCell(d *schematic.Design, openOff int) error {
	rd, sc := st.rd, st.sc
	openPos := rd.posAt(openOff)
	sc.Next() // (
	sc.Next() // cell
	tok, _, err := sc.Peek()
	if err != nil {
		return st.recordParseErr(openOff, err)
	}
	switch tok {
	case "":
		return st.unterminated(openOff)
	case ")":
		sc.Next()
		return rd.col.Errorf("record", openPos, "cell needs a name")
	}
	nameN, err := sc.ReadIndexed(&st.ix)
	if err != nil {
		if aerr := st.recordParseErr(openOff, err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	name, err := symOrStr(nameN)
	if err != nil {
		if aerr := rd.col.Errorf("record", rd.pos(nameN), "cell name: %v", err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	cell, err := d.AddCell(name)
	if err != nil {
		if aerr := rd.col.Errorf("record", openPos, "%v", err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return st.recordParseErr(off, err)
		}
		switch tok {
		case "":
			return st.unterminated(openOff)
		case ")":
			sc.Next()
			return nil
		}
		if tok == "(" {
			if head, herr := sc.PeekInside(); herr == nil && head == "page" {
				if aerr := st.walkPage(cell, off); aerr != nil {
					return aerr
				}
				sc.Compact()
				continue
			}
		}
		n, err := sc.ReadIndexed(&st.ix)
		if err != nil {
			if aerr := st.recordParseErr(off, err); aerr != nil {
				return aerr
			}
			sc.Compact()
			continue
		}
		if aerr := rd.readCellItem(cell, n); aerr != nil {
			return aerr
		}
		sc.Compact()
	}
}

// walkPage streams through one (page index (size ...) record...) form —
// the unbounded part of a large schematic: each inst/wire/label/conn/text
// record is parsed, handled, and its bytes discarded before the next one.
func (st *cdStream) walkPage(cell *schematic.Cell, openOff int) error {
	rd, sc := st.rd, st.sc
	sc.Next() // (
	sc.Next() // page
	tok, _, err := sc.Peek()
	if err != nil {
		return st.recordParseErr(openOff, err)
	}
	switch tok {
	case "":
		return st.unterminated(openOff)
	case ")":
		sc.Next()
		cell.AddPage(geom.Rect{}) // (page) keeps an empty page
		return nil
	}
	if err := sc.SkipForm(); err != nil { // the page index, never inspected
		return st.recordParseErr(openOff, err)
	}
	// An optional (size x0 y0 x1 y1) immediately after the index; anything
	// else at that slot is an ordinary body record.
	var size geom.Rect
	var pg *schematic.Page
	tok, off, err := sc.Peek()
	if err != nil {
		return st.recordParseErr(off, err)
	}
	switch tok {
	case "":
		return st.unterminated(openOff)
	case ")":
		sc.Next()
		cell.AddPage(size)
		return nil
	}
	n, err := sc.ReadIndexed(&st.ix)
	if err != nil {
		if aerr := st.recordParseErr(off, err); aerr != nil {
			return aerr
		}
	} else if n.Len() == 5 && n.Kid(0).IsSym("size") {
		xs, nerr := nums(n, 1, 5, 4)
		if nerr != nil {
			if aerr := rd.col.Errorf("record", rd.pos(n), "page size: %v", nerr); aerr != nil {
				return aerr
			}
		} else {
			size = geom.R(xs[0], xs[1], xs[2], xs[3])
		}
	} else {
		pg = cell.AddPage(size)
		if aerr := rd.readPageItem(pg, n); aerr != nil {
			return aerr
		}
	}
	if pg == nil {
		pg = cell.AddPage(size)
	}
	sc.Compact()
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return st.recordParseErr(off, err)
		}
		switch tok {
		case "":
			return st.unterminated(openOff)
		case ")":
			sc.Next()
			return nil
		}
		n, err := sc.ReadIndexed(&st.ix)
		if err != nil {
			// Record-boundary recovery: the damaged record is skipped and
			// everything after it is salvaged.
			if aerr := st.recordParseErr(off, err); aerr != nil {
				return aerr
			}
			sc.Compact()
			continue
		}
		if aerr := rd.readPageItem(pg, n); aerr != nil {
			return aerr
		}
		sc.Compact()
	}
}

// recordParseErr handles a parse error: strict reports at NoPos and
// aborts; lenient reports at the record's start and resynchronizes the
// scanner past the damaged record.
func (st *cdStream) recordParseErr(off int, err error) error {
	if st.rd.col.Mode == diag.Strict {
		return st.rd.col.Errorf("parse", diag.NoPos, "%v", err)
	}
	if aerr := st.rd.col.Errorf("parse", st.rd.posAt(off), "%s", err.Error()); aerr != nil {
		return aerr
	}
	st.sc.Resync()
	return nil
}

// unterminated reports end of input inside an open form, naming the
// offset of the innermost unclosed list. The lenient position is the
// start of the (design ...) form.
func (st *cdStream) unterminated(openOff int) error {
	err := fmt.Errorf("%w: offset %d: unterminated list", al.ErrParse, openOff)
	if st.rd.col.Mode == diag.Strict {
		return st.rd.col.Errorf("parse", diag.NoPos, "%v", err)
	}
	return st.rd.col.Errorf("parse", st.designPos, "%s", err.Error())
}

// countReader counts the bytes delivered from the wrapped reader.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
