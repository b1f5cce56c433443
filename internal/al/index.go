package al

import (
	"fmt"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// Flat index
//
// The reader parses into an Index: one []node slice per parse, every list
// and atom in preorder, with no allocation per atom. A list's first child
// immediately follows it and siblings chain through next, so a record
// handler walks the structure with a Node cursor and reads names straight
// out of the source text. Atoms are classified (symbol, number, boolean)
// only when asked, and a value tree is built only on demand — by Parse and
// friends, and by the interchange readers for the Repr in a diagnostic.

// nodeKind is the lexical kind of a node.
type nodeKind uint8

const (
	nodeList nodeKind = iota
	nodeAtom          // symbol, number or boolean; classified on access
	nodeStr           // string literal; tok holds the unquoted value
)

type node struct {
	tok  string // atom text or unquoted string; "" for a list
	off  int    // absolute byte offset of the first token
	next int32  // index of the next sibling, -1 for the last
	n    int32  // child count of a list
	kind nodeKind
}

// Index is a flat parse of one input, or of one record read from a
// Scanner. The zero Index is empty and ready to use; reusing an Index
// across parses reuses its node storage.
type Index struct {
	nodes []node
	first int32 // first toplevel form, -1 if none
	last  int32 // last toplevel form
	forms int
}

func (ix *Index) reset(sizeHint int) {
	if cap(ix.nodes) < sizeHint {
		ix.nodes = make([]node, 0, sizeHint)
	}
	ix.nodes = ix.nodes[:0]
	ix.first, ix.last, ix.forms = -1, -1, 0
}

// addForm links a parsed toplevel form into the form chain.
func (ix *Index) addForm(root int32) {
	if ix.first < 0 {
		ix.first = root
	} else {
		ix.nodes[ix.last].next = root
	}
	ix.last = root
	ix.forms++
}

// nodesFor estimates the node count of src: about one node per four
// bytes of typical s-expression text, so one allocation usually holds it.
func nodesFor(src string) int { return len(src)/4 + 8 }

// Parse indexes every expression in src. On a parse error the Index
// contents are unspecified.
func (ix *Index) Parse(src string) error {
	ix.reset(nodesFor(src))
	lx := &lexer{src: src}
	for {
		tok, off, err := lx.next()
		if err != nil {
			return err
		}
		if tok == "" {
			return nil
		}
		root, err := ix.expr(lx, tok, off, 0)
		if err != nil {
			return err
		}
		ix.addForm(root)
	}
}

// ParseRecover indexes every expression in src with toplevel error
// recovery: a malformed toplevel form is reported via report (offset,
// message) and skipped — the reader resynchronizes at the next balanced
// toplevel position and keeps going. The Index holds every form that did
// parse.
func (ix *Index) ParseRecover(src string, report func(off int, msg string)) {
	ix.reset(nodesFor(src))
	lx := &lexer{src: src}
	for {
		tok, off, err := lx.next()
		if err != nil {
			report(off, err.Error()) // the broken token is consumed
			continue
		}
		if tok == "" {
			return
		}
		mark := len(ix.nodes)
		root, err := ix.expr(lx, tok, off, 0)
		if err != nil {
			report(off, err.Error())
			ix.nodes = ix.nodes[:mark]
			lx.resync()
			continue
		}
		ix.addForm(root)
	}
}

// Forms returns the number of toplevel forms.
func (ix *Index) Forms() int { return ix.forms }

// First returns the first toplevel form; Next walks the rest.
func (ix *Index) First() Node {
	if ix.first < 0 {
		return Node{}
	}
	return Node{ix, ix.first}
}

func (ix *Index) push(nd node) int32 {
	ix.nodes = append(ix.nodes, nd)
	return int32(len(ix.nodes) - 1)
}

// item indexes one expression at nesting depth, lexing its first token.
func (ix *Index) item(lx *lexer, depth int) (int32, error) {
	if depth > MaxDepth {
		return -1, fmt.Errorf("%w: offset %d: nesting deeper than %d", ErrParse, lx.base+lx.pos, MaxDepth)
	}
	tok, off, err := lx.next()
	if err != nil {
		return -1, err
	}
	return ix.expr(lx, tok, off, depth)
}

// expr indexes one expression whose first token (tok at off) has been
// lexed, returning its node. Each token is lexed exactly once; where the
// grammar needs to look ahead, the lexer is rewound so error positions and
// recovery points match a peek-then-consume reader.
func (ix *Index) expr(lx *lexer, tok string, off, depth int) (int32, error) {
	switch {
	case tok == "":
		return -1, fmt.Errorf("%w: unexpected end of input", ErrParse)
	case tok == "(":
		self := ix.push(node{off: off, next: -1, kind: nodeList})
		prev, n := int32(-1), int32(0)
		for {
			save := lx.pos
			t, o, err := lx.next()
			if err != nil {
				lx.pos = save
				return -1, err
			}
			switch {
			case t == "":
				lx.pos = save
				return -1, fmt.Errorf("%w: offset %d: unterminated list", ErrParse, off)
			case t == ")":
				ix.nodes[self].n = n
				return self, nil
			case depth+1 > MaxDepth:
				lx.pos = save
				return -1, fmt.Errorf("%w: offset %d: nesting deeper than %d", ErrParse, lx.base+save, MaxDepth)
			}
			kid, err := ix.expr(lx, t, o, depth+1)
			if err != nil {
				return -1, err
			}
			if prev >= 0 {
				ix.nodes[prev].next = kid
			}
			prev = kid
			n++
		}
	case tok == ")":
		return -1, fmt.Errorf("%w: offset %d: unexpected )", ErrParse, off)
	case tok == "'":
		// 'x is (quote x); the synthetic head sits at the quote's offset.
		self := ix.push(node{off: off, next: -1, n: 2, kind: nodeList})
		head := ix.push(node{tok: "quote", off: off, next: -1, kind: nodeAtom})
		kid, err := ix.item(lx, depth+1)
		if err != nil {
			return -1, err
		}
		ix.nodes[head].next = kid
		return self, nil
	case tok[0] == '"':
		s, err := strconv.Unquote(tok)
		if err != nil {
			return -1, fmt.Errorf("%w: offset %d: bad string %s: %v", ErrParse, off, tok, err)
		}
		return ix.push(node{tok: s, off: off, next: -1, kind: nodeStr}), nil
	default:
		return ix.push(node{tok: tok, off: off, next: -1, kind: nodeAtom}), nil
	}
}

// parseNum is strconv.ParseFloat behind a first-byte filter: a float
// literal starts with a sign, a digit or a dot, or is one of the special
// words inf, infinity and nan, so every other atom — nearly every name —
// is a symbol without paying for ParseFloat's error value.
func parseNum(tok string) (float64, bool) {
	switch c := tok[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
	case c == 'i', c == 'I', c == 'n', c == 'N':
		if !strings.EqualFold(tok, "inf") && !strings.EqualFold(tok, "infinity") && !strings.EqualFold(tok, "nan") {
			return 0, false
		}
	default:
		return 0, false
	}
	n, err := strconv.ParseFloat(tok, 64)
	return n, err == nil
}

// atomValue classifies an atom token: #t/#f, a number, else a symbol.
func atomValue(tok string) Value {
	switch tok {
	case "#t":
		return Bool(true)
	case "#f":
		return Bool(false)
	}
	if n, ok := parseNum(tok); ok {
		return Num(n)
	}
	return Symbol(tok)
}

// ---------------------------------------------------------------------------
// Node cursor

// Node is a cursor on one list or atom of an Index. The zero Node is
// absent: it is not a list, has no children and reports offset -1. A Node
// is valid until its Index is reused.
type Node struct {
	ix *Index
	i  int32
}

// Valid reports whether the node exists.
func (n Node) Valid() bool { return n.ix != nil }

func (n Node) nd() *node { return &n.ix.nodes[n.i] }

// Off returns the byte offset of the node's first token, -1 for an
// absent node.
func (n Node) Off() int {
	if n.ix == nil {
		return -1
	}
	return n.nd().off
}

// IsList reports whether the node is a list (a quote form included).
func (n Node) IsList() bool { return n.ix != nil && n.nd().kind == nodeList }

// Len returns a list's element count, 0 for anything else.
func (n Node) Len() int {
	if !n.IsList() {
		return 0
	}
	return int(n.nd().n)
}

// Kid returns a list's i-th element, or the absent Node when there is
// none. It walks the sibling chain, so it costs O(i).
func (n Node) Kid(i int) Node {
	if i < 0 || i >= n.Len() {
		return Node{}
	}
	c := n.i + 1
	for ; i > 0; i-- {
		c = n.ix.nodes[c].next
	}
	return Node{n.ix, c}
}

// Next returns the following sibling, or the absent Node after a list's
// last element or the last toplevel form.
func (n Node) Next() Node {
	if n.ix == nil {
		return Node{}
	}
	if next := n.nd().next; next >= 0 {
		return Node{n.ix, next}
	}
	return Node{}
}

// Sym returns a symbol's name; ok is false for anything else.
func (n Node) Sym() (string, bool) {
	if n.ix == nil {
		return "", false
	}
	nd := n.nd()
	if nd.kind != nodeAtom || nd.tok == "#t" || nd.tok == "#f" {
		return "", false
	}
	if _, num := parseNum(nd.tok); num {
		return "", false
	}
	return nd.tok, true
}

// IsSym reports whether the node is the symbol s.
func (n Node) IsSym(s string) bool {
	sym, ok := n.Sym()
	return ok && sym == s
}

// Str returns a string literal's value; ok is false for anything else.
func (n Node) Str() (string, bool) {
	if n.ix == nil || n.nd().kind != nodeStr {
		return "", false
	}
	return n.nd().tok, true
}

// Num returns a number's value; ok is false for anything else.
func (n Node) Num() (float64, bool) {
	if n.ix == nil || n.nd().kind != nodeAtom {
		return 0, false
	}
	return parseNum(n.nd().tok)
}

// Repr renders the node in written form, building its value to do so —
// the one place a record reader pays for a value tree, on a diagnostic.
func (n Node) Repr() string {
	v, _ := n.materialize(false)
	return v.Repr()
}

// materialize builds the node's value and, when tracked, its position
// tree. An empty list is List(nil) with nil Kids, and atoms have nil Kids.
func (n Node) materialize(tracked bool) (Value, *PosTree) {
	nd := n.nd()
	var pt *PosTree
	if tracked {
		pt = &PosTree{Off: nd.off}
	}
	switch nd.kind {
	case nodeStr:
		return Str(nd.tok), pt
	case nodeAtom:
		return atomValue(nd.tok), pt
	}
	var items List
	if nd.n > 0 {
		items = make(List, 0, nd.n)
		if tracked {
			pt.Kids = make([]*PosTree, 0, nd.n)
		}
	}
	for k := n.Kid(0); k.Valid(); k = k.Next() {
		v, kid := k.materialize(tracked)
		items = append(items, v)
		if tracked {
			pt.Kids = append(pt.Kids, kid)
		}
	}
	return items, pt
}

// materializeAll builds every toplevel form's value and position tree.
func (ix *Index) materializeAll(tracked bool) ([]Value, []*PosTree) {
	var out []Value
	var trees []*PosTree
	for f := ix.First(); f.Valid(); f = f.Next() {
		v, pt := f.materialize(tracked)
		out = append(out, v)
		if tracked {
			trees = append(trees, pt)
		}
	}
	return out, trees
}
