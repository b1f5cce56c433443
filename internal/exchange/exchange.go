// Package exchange is a neutral netlist interchange format in the EDIF
// tradition — the standards answer to the paper's Section 1 observation
// that "companies who wish to use design information from other groups have
// found the limiting factor to be the format of the data itself."
//
// Like real EDIF, the format is s-expressions, and like real EDIF it has a
// rename mechanism: when the consuming tool cannot accept a name (length
// limits, keyword collisions), the writer externalizes a legal alias and
// records `(rename alias "original")` so the identity survives the trip.
// The reader restores original names, so a round trip through even a
// heavily restricted consumer is lossless — which is precisely what ad-hoc
// vendor formats of the era failed to guarantee.
package exchange

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/naming"
	"cadinterop/internal/netlist"
)

// ErrFormat reports malformed interchange input.
var ErrFormat = errors.New("exchange: format error")

// ErrIntegrity reports a failed round-trip integrity check: the trailer
// checksum or element manifest does not match the content, or a required
// trailer is absent.
var ErrIntegrity = errors.New("exchange: integrity check failed")

// WriteOptions models the consuming tool's name restrictions.
type WriteOptions struct {
	// NameLimit truncates externalized names to this many significant
	// characters (0 = unlimited). Originals are preserved via renames.
	NameLimit int
	// VHDLSafe additionally renames VHDL keywords and illegal characters.
	VHDLSafe bool
	// Trailer appends an integrity trailer comment — a sha256 of the body
	// plus an element-count manifest — that Read verifies. Off by default
	// so existing writers stay byte-identical; guarded paths
	// (VerifyRoundTrip, the backplane/migrate gates, E14) turn it on.
	Trailer bool
	// Hints prepends a (hints ...) record carrying the element counts so a
	// streaming reader can pre-size its tables before the records arrive
	// (the trailer manifest sits at the end, too late for that). Off by
	// default so existing outputs stay byte-identical.
	Hints bool
}

// Write serializes the netlist.
func Write(w io.Writer, nl *netlist.Netlist, opts WriteOptions) error {
	ct := countElems(nl)
	if !opts.Trailer {
		return writeBody(w, nl, opts, ct)
	}
	var buf bytes.Buffer
	buf.Grow(128 + 64*ct.cells + 32*(ct.ports+ct.nets+ct.insts+ct.conns+ct.attrs))
	if err := writeBody(&buf, nl, opts, ct); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	fmt.Fprintf(&buf, "; integrity sha256:%s cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d\n",
		hex.EncodeToString(sum[:]), ct.cells, ct.ports, ct.nets, ct.insts, ct.conns, ct.attrs)
	_, err := w.Write(buf.Bytes())
	return err
}

// elemCounts is the element manifest carried by the integrity trailer.
type elemCounts struct {
	cells, ports, nets, insts, conns, attrs int
}

func countElems(nl *netlist.Netlist) elemCounts {
	var ct elemCounts
	ct.cells = len(nl.Cells)
	for _, c := range nl.Cells {
		ct.ports += len(c.Ports)
		ct.nets += len(c.Nets)
		ct.insts += len(c.Instances)
		for _, nt := range c.Nets {
			ct.attrs += len(nt.Attrs)
		}
		for _, inst := range c.Instances {
			ct.conns += len(inst.Conns)
			ct.attrs += len(inst.Attrs)
		}
	}
	return ct
}

func writeBody(w io.Writer, nl *netlist.Netlist, opts WriteOptions, ct elemCounts) error {
	bw := bufio.NewWriter(w)
	ext := newExternalizer(opts, ct.cells+ct.ports+ct.nets+ct.insts)

	fmt.Fprintf(bw, "(edif %s\n", ext.name(nlName(nl)))
	if opts.Hints {
		fmt.Fprintf(bw, "  (hints (cells %d) (ports %d) (nets %d) (insts %d) (conns %d) (attrs %d))\n",
			ct.cells, ct.ports, ct.nets, ct.insts, ct.conns, ct.attrs)
	}
	for _, cn := range nl.CellNames() {
		c := nl.Cells[cn]
		fmt.Fprintf(bw, "  (cell %s\n    (interface", ext.name(cn))
		for _, p := range c.Ports {
			fmt.Fprintf(bw, " (port %s %s)", ext.name(p.Name), p.Dir)
		}
		fmt.Fprintf(bw, ")\n")
		if c.Primitive {
			fmt.Fprintf(bw, "    (primitive)\n")
		}
		if len(c.Nets) > 0 || len(c.Instances) > 0 {
			fmt.Fprintf(bw, "    (contents\n")
			for _, nn := range c.NetNames() {
				nt := c.Nets[nn]
				fmt.Fprintf(bw, "      (net %s", ext.name(nn))
				if nt.Global {
					fmt.Fprintf(bw, " (global)")
				}
				writeAttrs(bw, nt.Attrs)
				fmt.Fprintf(bw, ")\n")
			}
			for _, in := range c.InstanceNames() {
				inst := c.Instances[in]
				fmt.Fprintf(bw, "      (instance %s (of %s) (joined", ext.name(in), ext.name(inst.Master))
				ports := make([]string, 0, len(inst.Conns))
				for p := range inst.Conns {
					ports = append(ports, p)
				}
				sort.Strings(ports)
				for _, p := range ports {
					fmt.Fprintf(bw, " (%s %s)", ext.name(p), ext.name(inst.Conns[p]))
				}
				fmt.Fprintf(bw, ")")
				writeAttrs(bw, inst.Attrs)
				fmt.Fprintf(bw, ")\n")
			}
			fmt.Fprintf(bw, "    )\n")
		}
		fmt.Fprintf(bw, "  )\n")
	}
	// Rename table: alias -> original, sorted for stable output.
	aliases := make([]string, 0, len(ext.renames))
	for a := range ext.renames {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		fmt.Fprintf(bw, "  (rename %s %s)\n", a, strconv.Quote(ext.renames[a]))
	}
	if nl.Top != "" {
		fmt.Fprintf(bw, "  (design %s)\n", ext.name(nl.Top))
	}
	fmt.Fprintf(bw, ")\n")
	return bw.Flush()
}

func nlName(nl *netlist.Netlist) string {
	if nl.Top != "" {
		return nl.Top
	}
	return "library"
}

func writeAttrs(w io.Writer, attrs map[string]string) {
	if len(attrs) == 0 {
		return
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " (property %s %s)", k, strconv.Quote(attrs[k]))
	}
}

// externalizer maps internal names to names the consumer accepts,
// recording renames.
type externalizer struct {
	opts    WriteOptions
	out     map[string]string // original -> alias
	used    map[string]bool
	renames map[string]string // alias -> original
}

func newExternalizer(opts WriteOptions, names int) *externalizer {
	return &externalizer{
		opts:    opts,
		out:     make(map[string]string, names),
		used:    make(map[string]bool, names),
		renames: make(map[string]string),
	}
}

// name externalizes one identifier.
func (e *externalizer) name(n string) string {
	if a, ok := e.out[n]; ok {
		return a
	}
	alias := n
	if e.opts.VHDLSafe {
		m, err := naming.RenameForVHDL([]string{alias})
		if err == nil {
			if nw, ok := m[alias]; ok {
				alias = nw
			}
		}
	}
	if e.opts.NameLimit > 0 {
		alias = naming.Truncate(alias, e.opts.NameLimit)
	}
	if alias == "" || needsQuoting(alias) {
		alias = "id" + alias
	}
	// Uniquify within the file.
	base := alias
	for i := 2; e.used[alias]; i++ {
		suffix := fmt.Sprintf("_%d", i)
		if e.opts.NameLimit > 0 && len(base)+len(suffix) > e.opts.NameLimit {
			alias = naming.Truncate(base, e.opts.NameLimit-len(suffix)) + suffix
		} else {
			alias = base + suffix
		}
	}
	e.used[alias] = true
	e.out[n] = alias
	if alias != n {
		e.renames[alias] = n
	}
	return alias
}

// needsQuoting reports whether a name cannot be an s-expression symbol.
func needsQuoting(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '(' || c == ')' || c == '"' || c == ';' || c == '\'' {
			return true
		}
	}
	return s[0] >= '0' && s[0] <= '9'
}

// ReadOptions selects the reader's failure policy.
type ReadOptions struct {
	// Mode: diag.Strict (default) aborts on the first error-severity
	// diagnostic; diag.Lenient quarantines the malformed record and keeps
	// parsing, returning a partial netlist plus the full damage report.
	Mode diag.Mode
	// Source names the input in diagnostics ("" = "<input>").
	Source string
	// RequireTrailer makes a missing integrity trailer an error. Guarded
	// paths set it: corruption that deletes the trailer line must be
	// detected, not silently accepted.
	RequireTrailer bool
}

// Read parses an interchange file, restoring renamed identifiers. It is the
// strict-mode entry point: the first malformed record aborts.
func Read(r io.Reader) (*netlist.Netlist, error) {
	nl, _, err := ReadWithDiagnostics(r, ReadOptions{})
	return nl, err
}

// ReadWithDiagnostics parses an interchange file under the given policy.
// The diagnostics slice is returned in both outcomes; in lenient mode a
// non-nil netlist with error diagnostics means "partial design — these
// records were quarantined".
func ReadWithDiagnostics(r io.Reader, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return ReadBytes(data, opts)
}

// ReadBytes is ReadWithDiagnostics over an in-memory input.
func ReadBytes(data []byte, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	rd := &exReader{src: string(data), col: col}
	nl, err := rd.read(opts.RequireTrailer)
	if err != nil {
		return nil, col.Diags, err
	}
	if nl == nil {
		// The toplevel (edif ...) form itself was quarantined; there is
		// nothing to recover.
		return nil, col.Diags, fmt.Errorf("%w: no usable (edif ...) form", ErrFormat)
	}
	if opts.Mode == diag.Strict {
		if err := col.Err(); err != nil {
			return nil, col.Diags, err
		}
	}
	return nl, col.Diags, nil
}

type exReader struct {
	src string
	col *diag.Collector
	// sc is set by the streaming entry points (stream.go): positions then
	// resolve against the scanner's window instead of a full source copy.
	sc *al.Scanner
}

// pos upgrades an indexed node to a line/column position.
func (rd *exReader) pos(n al.Node) diag.Pos {
	return rd.posAt(n.Off())
}

// posAt upgrades a byte offset to a line/column position. In streaming
// mode an offset already compacted out of the window degrades to
// offset-only rather than costing the memory bound.
func (rd *exReader) posAt(off int) diag.Pos {
	if rd.sc == nil {
		return diag.LineCol(rd.src, off)
	}
	if off < 0 {
		return diag.NoPos
	}
	if line, col, ok := rd.sc.LineColAt(off); ok {
		return diag.Pos{Offset: off, Line: line, Col: col}
	}
	return diag.Pos{Offset: off}
}

func (rd *exReader) read(requireTrailer bool) (*netlist.Netlist, error) {
	trailer, terr := rd.checkTrailer(requireTrailer)
	if terr != nil {
		return nil, terr
	}

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
		return nil, rd.col.Errorf("parse", diag.NoPos, "expected one (edif ...) form, got %d", ix.Forms())
	}
	top := ix.First()
	if top.Len() < 2 || !top.Kid(0).IsSym("edif") {
		return nil, rd.col.Errorf("parse", rd.pos(top), "missing (edif ...) form")
	}

	// First pass: collect the rename table.
	renames := make(map[string]string)
	for it := top.Kid(2); it.Valid(); it = it.Next() {
		if it.Len() == 3 && it.Kid(0).IsSym("rename") {
			alias, err1 := symStr(it.Kid(1))
			orig, err2 := symStr(it.Kid(2))
			if err1 != nil || err2 != nil {
				if err := rd.col.Errorf("record", rd.pos(it), "bad rename"); err != nil {
					return nil, err
				}
				continue
			}
			renames[alias] = orig
		}
	}
	restore := func(alias string) string {
		if orig, ok := renames[alias]; ok {
			return orig
		}
		return alias
	}

	nl := netlist.New()
	for it := top.Kid(2); it.Valid(); it = it.Next() {
		if it.Len() == 0 {
			if err := rd.col.Errorf("record", rd.pos(it), "unexpected item %s", it.Repr()); err != nil {
				return nil, err
			}
			continue
		}
		head, _ := it.Kid(0).Sym()
		switch head {
		case "rename":
			// handled in the first pass
		case "design":
			if it.Len() < 2 {
				if err := rd.col.Errorf("record", rd.pos(it), "design needs a name"); err != nil {
					return nil, err
				}
				continue
			}
			name, err := symStr(it.Kid(1))
			if err != nil {
				if err := rd.col.Errorf("record", rd.pos(it.Kid(1)), "design name: %v", err); err != nil {
					return nil, err
				}
				continue
			}
			nl.Top = restore(name)
		case "cell":
			if err := rd.readCell(nl, it, restore); err != nil {
				return nil, err
			}
		case "hints":
			ct := hintCounts(it)
			nl.Grow(ct.cells)
		default:
			if err := rd.col.Errorf("record", rd.pos(it), "unknown form %q", head); err != nil {
				return nil, err
			}
		}
	}
	if trailer != nil {
		got := countElems(nl)
		if got != *trailer {
			if err := rd.integrityErr(diag.NoPos,
				"element manifest mismatch: trailer says cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d, parsed cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d",
				trailer.cells, trailer.ports, trailer.nets, trailer.insts, trailer.conns, trailer.attrs,
				got.cells, got.ports, got.nets, got.insts, got.conns, got.attrs); err != nil {
				return nil, err
			}
		}
	}
	if err := rd.reconcile(nl); err != nil {
		return nil, err
	}
	return nl, nil
}

// reconcile enforces referential integrity on the parsed netlist: an
// instance of an undefined cell, or a connection to a port or net that does
// not exist (whether the file was written that way or a lenient-mode
// quarantine orphaned the reference). In strict mode the first dangling
// reference aborts the read; in lenient mode the orphan is cascade-dropped
// with a warning, so the partial design handed back still passes Validate —
// no data is lost without a record either way.
func (rd *exReader) reconcile(nl *netlist.Netlist) error {
	report := func(format string, args ...any) error {
		if rd.col.Mode == diag.Lenient {
			rd.col.Warnf("quarantine", diag.NoPos, format, args...)
			return nil
		}
		return rd.col.Errorf("dangling", diag.NoPos, format, args...)
	}
	if nl.Top != "" {
		if _, ok := nl.Cell(nl.Top); !ok {
			if err := report("design references undefined cell %q", nl.Top); err != nil {
				return err
			}
			nl.Top = ""
		}
	}
	for _, cn := range nl.CellNames() {
		c, _ := nl.Cell(cn)
		for _, in := range c.InstanceNames() {
			inst := c.Instances[in]
			master, ok := nl.Cell(inst.Master)
			if !ok {
				if err := report("cell %q instance %q: master %q undefined", cn, in, inst.Master); err != nil {
					return err
				}
				delete(c.Instances, in)
				continue
			}
			ports := make([]string, 0, len(inst.Conns))
			for p := range inst.Conns {
				ports = append(ports, p)
			}
			sort.Strings(ports)
			for _, port := range ports {
				net := inst.Conns[port]
				if _, ok := master.Port(port); !ok {
					if err := report("cell %q instance %q connection %s=%s: master %q has no port %q",
						cn, in, port, net, inst.Master, port); err != nil {
						return err
					}
					delete(inst.Conns, port)
					continue
				}
				if _, ok := c.Nets[net]; !ok {
					if err := report("cell %q instance %q connection %s=%s: net undefined", cn, in, port, net); err != nil {
						return err
					}
					delete(inst.Conns, port)
				}
			}
		}
	}
	return nil
}

// checkTrailer locates and verifies the integrity trailer. It returns the
// manifest counts when a trailer with a valid checksum is present, nil when
// absent (and not required).
func (rd *exReader) checkTrailer(require bool) (*elemCounts, error) {
	line, start := lastLine(rd.src)
	const prefix = "; integrity sha256:"
	if !strings.HasPrefix(line, prefix) {
		if require {
			return nil, rd.integrityErr(diag.NoPos, "required integrity trailer is absent")
		}
		rd.col.Infof("integrity", diag.NoPos, "integrity trailer absent; content not verified")
		return nil, nil
	}
	pos := diag.LineCol(rd.src, start)
	sum := sha256.Sum256([]byte(rd.src[:start]))
	ct, msg := parseTrailerFields(line, sum)
	if msg != "" {
		return nil, rd.integrityErr(pos, "%s", msg)
	}
	return ct, nil
}

// parseTrailerFields validates a trailer line against the body checksum
// and decodes its manifest counts. A non-empty message names the failure;
// the texts are shared by the buffered and streaming verifiers.
func parseTrailerFields(line string, bodySum [sha256.Size]byte) (*elemCounts, string) {
	fields := strings.Fields(line[len("; "):])
	// fields[0] = "integrity", fields[1] = "sha256:<hex>", then k=v counts.
	if len(fields) < 2 || !strings.HasPrefix(fields[1], "sha256:") {
		return nil, "malformed integrity trailer"
	}
	wantSum := strings.TrimPrefix(fields[1], "sha256:")
	if hex.EncodeToString(bodySum[:]) != wantSum {
		return nil, "content checksum mismatch: body does not match sha256 in trailer"
	}
	var ct elemCounts
	seen := 0
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Sprintf("malformed count %q in integrity trailer", f)
		}
		switch k {
		case "cells":
			ct.cells = n
		case "ports":
			ct.ports = n
		case "nets":
			ct.nets = n
		case "insts":
			ct.insts = n
		case "conns":
			ct.conns = n
		case "attrs":
			ct.attrs = n
		default:
			continue
		}
		seen++
	}
	if seen != 6 {
		return nil, fmt.Sprintf("integrity trailer manifest incomplete (%d of 6 counts)", seen)
	}
	return &ct, ""
}

// hintCounts decodes a (hints (cells N) ...) record. Hints are advisory
// pre-sizing data, so unknown or malformed entries are ignored, never
// diagnosed.
func hintCounts(l al.Node) elemCounts {
	var ct elemCounts
	for sub := l.Kid(1); sub.Valid(); sub = sub.Next() {
		if sub.Len() != 2 {
			continue
		}
		key, ok := sub.Kid(0).Sym()
		if !ok {
			continue
		}
		num, ok := sub.Kid(1).Num()
		n := int(num)
		if !ok || float64(n) != num || n < 0 {
			continue
		}
		switch key {
		case "cells":
			ct.cells = n
		case "ports":
			ct.ports = n
		case "nets":
			ct.nets = n
		case "insts":
			ct.insts = n
		case "conns":
			ct.conns = n
		case "attrs":
			ct.attrs = n
		}
	}
	return ct
}

// integrityErr reports an integrity failure. In strict mode it always
// aborts with ErrIntegrity in the chain; in lenient mode it is recorded and
// nil is returned so the body still gets parsed (the caller sees the
// diagnostic).
func (rd *exReader) integrityErr(pos diag.Pos, format string, args ...any) error {
	if err := rd.col.Errorf("integrity", pos, format, args...); err != nil {
		return &diag.DiagError{Diag: rd.col.Diags[len(rd.col.Diags)-1], Sentinel: ErrIntegrity}
	}
	return nil
}

// lastLine returns the last non-empty line of src and its byte offset.
func lastLine(src string) (string, int) {
	end := len(src)
	for end > 0 && (src[end-1] == '\n' || src[end-1] == '\r') {
		end--
	}
	start := strings.LastIndexByte(src[:end], '\n') + 1
	return src[start:end], start
}

// readCell parses one (cell ...) form. A returned non-nil error is an
// abort; recoverable problems are reported and the offending record
// skipped.
func (rd *exReader) readCell(nl *netlist.Netlist, l al.Node, restore func(string) string) error {
	if l.Len() < 2 {
		return rd.col.Errorf("record", rd.pos(l), "cell needs a name")
	}
	name, err := symStr(l.Kid(1))
	if err != nil {
		return rd.col.Errorf("record", rd.pos(l.Kid(1)), "cell name: %v", err)
	}
	c, err := nl.AddCell(restore(name))
	if err != nil {
		return rd.col.Errorf("record", rd.pos(l), "%v", err)
	}
	for it := l.Kid(2); it.Valid(); it = it.Next() {
		if err := rd.readCellItem(c, it, restore); err != nil {
			return err
		}
	}
	return nil
}

// readCellItem handles one body item of a (cell ...) form. The streaming
// reader calls it record by record; the buffered reader loops over the
// indexed cell. A non-nil return is an abort.
func (rd *exReader) readCellItem(c *netlist.Cell, it al.Node, restore func(string) string) error {
	if it.Len() == 0 {
		return rd.col.Errorf("record", rd.pos(it), "bad cell item %s", it.Repr())
	}
	head, _ := it.Kid(0).Sym()
	switch head {
	case "interface":
		return rd.readInterface(c, it, restore)
	case "primitive":
		c.Primitive = true
	case "contents":
		for item := it.Kid(1); item.Valid(); item = item.Next() {
			if err := rd.readContentsItem(c, item, restore); err != nil {
				return err
			}
		}
	default:
		return rd.col.Errorf("record", rd.pos(it), "unknown cell item %q", head)
	}
	return nil
}

func (rd *exReader) readInterface(c *netlist.Cell, il al.Node, restore func(string) string) error {
	for pl := il.Kid(1); pl.Valid(); pl = pl.Next() {
		if pl.Len() != 3 || !pl.Kid(0).IsSym("port") {
			if err := rd.col.Errorf("record", rd.pos(pl), "bad port %s", pl.Repr()); err != nil {
				return err
			}
			continue
		}
		pname, err1 := symStr(pl.Kid(1))
		dname, err2 := symStr(pl.Kid(2))
		if err1 != nil || err2 != nil {
			if err := rd.col.Errorf("record", rd.pos(pl), "port fields"); err != nil {
				return err
			}
			continue
		}
		dir, err := netlist.ParsePortDir(dname)
		if err != nil {
			if err := rd.col.Errorf("record", rd.pos(pl.Kid(2)), "%v", err); err != nil {
				return err
			}
			continue
		}
		if err := c.AddPort(restore(pname), dir); err != nil {
			if err := rd.col.Errorf("record", rd.pos(pl), "%v", err); err != nil {
				return err
			}
		}
	}
	return nil
}

// readContentsItem handles one record of a (contents ...) form — the
// granularity at which the streaming reader parses, recovers and frees
// memory. A non-nil return is an abort.
func (rd *exReader) readContentsItem(c *netlist.Cell, il al.Node, restore func(string) string) error {
	if il.Len() == 0 {
		return rd.col.Errorf("record", rd.pos(il), "bad contents item")
	}
	head, _ := il.Kid(0).Sym()
	switch head {
	case "net":
		if il.Len() < 2 {
			return rd.col.Errorf("record", rd.pos(il), "net needs a name")
		}
		name, err := symStr(il.Kid(1))
		if err != nil {
			return rd.col.Errorf("record", rd.pos(il.Kid(1)), "net name: %v", err)
		}
		nt := c.EnsureNet(restore(name))
		for sl := il.Kid(2); sl.Valid(); sl = sl.Next() {
			switch {
			case sl.Len() == 0:
			case sl.Kid(0).IsSym("global"):
				nt.Global = true
			case sl.Len() == 3 && sl.Kid(0).IsSym("property"):
				k, _ := symStr(sl.Kid(1))
				v, _ := symStr(sl.Kid(2))
				nt.Attrs[k] = v
			}
		}
	case "instance":
		return rd.readInstance(c, il, restore)
	default:
		return rd.col.Errorf("record", rd.pos(il), "unknown contents item %q", head)
	}
	return nil
}

func (rd *exReader) readInstance(c *netlist.Cell, il al.Node, restore func(string) string) error {
	if il.Len() < 2 {
		return rd.col.Errorf("record", rd.pos(il), "instance needs a name")
	}
	name, err := symStr(il.Kid(1))
	if err != nil {
		return rd.col.Errorf("record", rd.pos(il.Kid(1)), "instance name: %v", err)
	}
	var inst *netlist.Instance
	for sl := il.Kid(2); sl.Valid(); sl = sl.Next() {
		switch {
		case sl.Len() == 0:
		case sl.Len() == 2 && sl.Kid(0).IsSym("of"):
			m, err := symStr(sl.Kid(1))
			if err != nil {
				return rd.col.Errorf("record", rd.pos(sl.Kid(1)), "master: %v", err)
			}
			inst, err = c.AddInstance(restore(name), restore(m))
			if err != nil {
				return rd.col.Errorf("record", rd.pos(sl), "%v", err)
			}
		case sl.Kid(0).IsSym("joined"):
			if inst == nil {
				return rd.col.Errorf("record", rd.pos(sl), "joined before of")
			}
			for jl := sl.Kid(1); jl.Valid(); jl = jl.Next() {
				if jl.Len() != 2 {
					if err := rd.col.Errorf("record", rd.pos(jl), "bad joined pair %s", jl.Repr()); err != nil {
						return err
					}
					continue
				}
				port, err1 := symStr(jl.Kid(0))
				net, err2 := symStr(jl.Kid(1))
				if err1 != nil || err2 != nil {
					if err := rd.col.Errorf("record", rd.pos(jl), "joined fields"); err != nil {
						return err
					}
					continue
				}
				if err := c.Connect(restore(name), restore(port), restore(net)); err != nil {
					if err := rd.col.Errorf("record", rd.pos(jl), "%v", err); err != nil {
						return err
					}
				}
			}
		case sl.Len() == 3 && sl.Kid(0).IsSym("property"):
			if inst == nil {
				return rd.col.Errorf("record", rd.pos(sl), "property before of")
			}
			k, _ := symStr(sl.Kid(1))
			v, _ := symStr(sl.Kid(2))
			inst.Attrs[k] = v
		}
	}
	if inst == nil {
		return rd.col.Errorf("record", rd.pos(il), "instance %q missing (of ...)", name)
	}
	return nil
}

// VerifyRoundTrip writes nl (with the integrity trailer), reads it back in
// strict guarded mode, and semantically compares the result against the
// original — attributes included. A nil return certifies the design
// survives the interchange trip losslessly; any loss is named, not silent.
func VerifyRoundTrip(nl *netlist.Netlist) error {
	var buf bytes.Buffer
	if err := Write(&buf, nl, WriteOptions{Trailer: true}); err != nil {
		return fmt.Errorf("roundtrip write: %w", err)
	}
	got, _, err := ReadBytes(buf.Bytes(), ReadOptions{Source: "roundtrip", RequireTrailer: true})
	if err != nil {
		return fmt.Errorf("roundtrip read: %w", err)
	}
	diffs := netlist.Compare(nl, got, netlist.CompareOptions{CompareAttrs: true})
	if len(diffs) > 0 {
		return fmt.Errorf("%w: round-trip mismatch: %d diffs, first: %s", ErrIntegrity, len(diffs), diffs[0])
	}
	return nil
}

// Fingerprint is the hex SHA-256 of the netlist's canonical exchange
// serialization (no integrity trailer) — a stable content address for
// memoization keys (internal/memo): two netlists hash equal exactly when
// their interchange form is byte-identical.
func Fingerprint(nl *netlist.Netlist) (string, error) {
	h := sha256.New()
	if err := Write(h, nl, WriteOptions{}); err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func symStr(n al.Node) (string, error) {
	if s, ok := n.Sym(); ok {
		return s, nil
	}
	if s, ok := n.Str(); ok {
		return s, nil
	}
	return "", fmt.Errorf("expected name, got %s", n.Repr())
}
