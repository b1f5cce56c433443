// Package al implements a/L, the small Lisp dialect the paper's Section 2
// credits for Exar's fully automated schematic migration: "By using the a/L
// interpreted language to handle the unique formatting requirements, Exar
// achieved a high degree of automation with no manual post translation
// cleanup."
//
// a/L here is a lexically scoped Lisp-1 with the special forms quote, if,
// cond, define, set!, lambda, let, let*, begin, and, or, plus a library of
// list and string builtins chosen for property-reformatting work. Host code
// (the migrator) exposes the design hierarchy to callbacks by registering
// foreign functions with Env.RegisterFunc.
package al

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Value is any a/L datum. The concrete types are Symbol, Str, Num, Bool,
// List, *Builtin, *Closure and Foreign.
type Value interface {
	// Repr renders the value in written (read-back) form.
	Repr() string
}

// Symbol is an identifier.
type Symbol string

// Str is a string literal.
type Str string

// Num is a number; a/L has a single numeric tower of float64, like many
// small embedded Lisps.
type Num float64

// Bool is #t or #f.
type Bool bool

// List is a proper list. The empty List is nil/'().
type List []Value

// Foreign wraps an arbitrary host object passed through a/L untouched.
type Foreign struct {
	Tag string
	Obj any
}

// Builtin is a native function.
type Builtin struct {
	Name string
	Fn   func(args []Value) (Value, error)
}

// Closure is a user-defined function.
type Closure struct {
	Params   []Symbol
	Variadic bool // last param collects the rest as a List
	Body     []Value
	Env      *Env
}

// Repr implementations.
func (s Symbol) Repr() string { return string(s) }
func (s Str) Repr() string    { return strconv.Quote(string(s)) }
func (n Num) Repr() string {
	if n == Num(int64(n)) {
		return strconv.FormatInt(int64(n), 10)
	}
	return strconv.FormatFloat(float64(n), 'g', -1, 64)
}
func (b Bool) Repr() string {
	if b {
		return "#t"
	}
	return "#f"
}
func (l List) Repr() string {
	parts := make([]string, len(l))
	for i, v := range l {
		parts[i] = v.Repr()
	}
	return "(" + strings.Join(parts, " ") + ")"
}
func (f Foreign) Repr() string  { return fmt.Sprintf("#<foreign:%s>", f.Tag) }
func (b *Builtin) Repr() string { return fmt.Sprintf("#<builtin:%s>", b.Name) }
func (c *Closure) Repr() string { return fmt.Sprintf("#<lambda/%d>", len(c.Params)) }

// Truthy follows Scheme: everything except #f is true.
func Truthy(v Value) bool {
	b, ok := v.(Bool)
	return !ok || bool(b)
}

// Errors.
var (
	// ErrParse reports malformed source text.
	ErrParse = errors.New("al: parse error")
	// ErrEval reports a runtime evaluation failure.
	ErrEval = errors.New("al: eval error")
	// ErrUnbound reports a reference to an undefined symbol.
	ErrUnbound = errors.New("al: unbound symbol")
)

// ---------------------------------------------------------------------------
// Reader
//
// The reader carries byte offsets on every token, so the interchange
// readers built on top of a/L (exchange, cd) can attach file positions to
// their diagnostics — "detect, don't silently accept" needs a place to
// point at. It parses into a flat Index (index.go) that those readers
// walk directly; Parse and friends materialize values from it, and
// ParseTracked adds a position tree mirroring the value tree.

// MaxDepth bounds list nesting. Without it a hostile input of open parens
// drives the recursive-descent reader arbitrarily deep; with it malformed
// nesting is an ordinary parse error.
const MaxDepth = 2000

// PosTree mirrors the shape of one parsed Value: Off is the byte offset of
// the expression's first token, and for a List, Kids holds one subtree per
// element. Atoms have nil Kids.
type PosTree struct {
	Off  int
	Kids []*PosTree
}

// Kid returns the i-th child subtree, falling back to the parent's own
// position when the index is out of range — diagnostics always get a
// position, at worst the enclosing form's.
func (p *PosTree) Kid(i int) *PosTree {
	if p == nil {
		return nil
	}
	if i >= 0 && i < len(p.Kids) {
		return p.Kids[i]
	}
	return &PosTree{Off: p.Off}
}

// Offset returns the node's byte offset, -1 for a nil tree.
func (p *PosTree) Offset() int {
	if p == nil {
		return -1
	}
	return p.Off
}

type lexer struct {
	src string
	pos int
	// base offsets every reported position: the stream scanner (stream.go)
	// lexes window slices of a larger input and needs absolute offsets in
	// indexed nodes and error messages. Whole-input parsing leaves it 0.
	base int
}

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ';' { // comment to end of line
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		break
	}
}

// next returns the token text and its starting byte offset (base-shifted).
// EOF is the empty token at offset len(src).
func (lx *lexer) next() (tok string, off int, err error) {
	lx.skipSpace()
	if lx.pos >= len(lx.src) {
		return "", lx.base + len(lx.src), nil // EOF signalled by empty token
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', '\'':
		lx.pos++
		return lx.src[start:lx.pos], lx.base + start, nil
	case '"':
		lx.pos++
		for lx.pos < len(lx.src) {
			if lx.src[lx.pos] == '\\' {
				lx.pos += 2
				continue
			}
			if lx.src[lx.pos] == '"' {
				lx.pos++
				return lx.src[start:lx.pos], lx.base + start, nil
			}
			lx.pos++
		}
		return "", lx.base + start, fmt.Errorf("%w: offset %d: unterminated string", ErrParse, lx.base+start)
	default:
		for lx.pos < len(lx.src) {
			c := lx.src[lx.pos]
			if c == '(' || c == ')' || c == '\'' || c == '"' || c == ';' ||
				c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			lx.pos++
		}
		return lx.src[start:lx.pos], lx.base + start, nil
	}
}

// Parse reads all expressions in src.
func Parse(src string) ([]Value, error) {
	var ix Index
	if err := ix.Parse(src); err != nil {
		return nil, err
	}
	vs, _ := ix.materializeAll(false)
	return vs, nil
}

// ParseTracked reads all expressions in src, returning a position tree per
// expression alongside the values.
func ParseTracked(src string) ([]Value, []*PosTree, error) {
	var ix Index
	if err := ix.Parse(src); err != nil {
		return nil, nil, err
	}
	vs, trees := ix.materializeAll(true)
	return vs, trees, nil
}

// ParseRecover reads all expressions in src with toplevel error recovery
// (see Index.ParseRecover), returning every form that did parse.
func ParseRecover(src string, report func(off int, msg string)) ([]Value, []*PosTree) {
	var ix Index
	ix.ParseRecover(src, report)
	return ix.materializeAll(true)
}

// resync consumes tokens until the paren depth returns to balance at a
// toplevel boundary (or EOF), the recovery point after a parse error.
func (lx *lexer) resync() {
	depth := 0
	for {
		tok, _, err := lx.next()
		if err != nil {
			// A broken token (unterminated string) eats the rest of the
			// input anyway; stop here.
			lx.pos = len(lx.src)
			return
		}
		switch tok {
		case "":
			return
		case "(":
			depth++
		case ")":
			if depth <= 1 {
				return
			}
			depth--
		}
	}
}

// ParseOne reads exactly one expression.
func ParseOne(src string) (Value, error) {
	vs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(vs) != 1 {
		return nil, fmt.Errorf("%w: expected one expression, got %d", ErrParse, len(vs))
	}
	return vs[0], nil
}

// ---------------------------------------------------------------------------
// Environment

// Env is a lexical scope frame.
type Env struct {
	vars   map[Symbol]Value
	parent *Env
}

// NewEnv returns a fresh global environment with the standard library bound.
func NewEnv() *Env {
	e := &Env{vars: make(map[Symbol]Value)}
	registerStdlib(e)
	return e
}

// Child returns a new scope nested in e.
func (e *Env) Child() *Env {
	return &Env{vars: make(map[Symbol]Value), parent: e}
}

// Lookup resolves a symbol.
func (e *Env) Lookup(s Symbol) (Value, error) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[s]; ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrUnbound, s)
}

// Define binds s in this frame.
func (e *Env) Define(s Symbol, v Value) { e.vars[s] = v }

// Set rebinds the nearest existing binding of s.
func (e *Env) Set(s Symbol, v Value) error {
	for env := e; env != nil; env = env.parent {
		if _, ok := env.vars[s]; ok {
			env.vars[s] = v
			return nil
		}
	}
	return fmt.Errorf("%w: set! of %s", ErrUnbound, s)
}

// RegisterFunc exposes a Go function to a/L programs. This is the hook the
// migrator uses to let callbacks "interact with the entire design hierarchy"
// as the paper puts it.
func (e *Env) RegisterFunc(name string, fn func(args []Value) (Value, error)) {
	e.Define(Symbol(name), &Builtin{Name: name, Fn: fn})
}

// ---------------------------------------------------------------------------
// Evaluator

// Eval evaluates one expression in env.
func Eval(expr Value, env *Env) (Value, error) {
	for { // tail-call loop
		switch v := expr.(type) {
		case Num, Str, Bool, Foreign, *Builtin, *Closure:
			return v, nil
		case Symbol:
			return env.Lookup(v)
		case List:
			if len(v) == 0 {
				return List(nil), nil
			}
			if head, ok := v[0].(Symbol); ok {
				switch head {
				case "quote":
					if len(v) != 2 {
						return nil, fmt.Errorf("%w: quote wants 1 arg", ErrEval)
					}
					return v[1], nil
				case "if":
					if len(v) != 3 && len(v) != 4 {
						return nil, fmt.Errorf("%w: if wants 2 or 3 args", ErrEval)
					}
					c, err := Eval(v[1], env)
					if err != nil {
						return nil, err
					}
					if Truthy(c) {
						expr = v[2]
						continue
					}
					if len(v) == 4 {
						expr = v[3]
						continue
					}
					return Bool(false), nil
				case "cond":
					matched := false
					for _, clause := range v[1:] {
						cl, ok := clause.(List)
						if !ok || len(cl) < 2 {
							return nil, fmt.Errorf("%w: malformed cond clause", ErrEval)
						}
						if sym, ok := cl[0].(Symbol); ok && sym == "else" {
							expr = List(append(List{Symbol("begin")}, cl[1:]...))
							matched = true
							break
						}
						c, err := Eval(cl[0], env)
						if err != nil {
							return nil, err
						}
						if Truthy(c) {
							expr = List(append(List{Symbol("begin")}, cl[1:]...))
							matched = true
							break
						}
					}
					if !matched {
						return Bool(false), nil
					}
					continue
				case "define":
					if len(v) < 3 {
						return nil, fmt.Errorf("%w: define wants 2+ args", ErrEval)
					}
					// (define (f a b) body...) sugar.
					if sig, ok := v[1].(List); ok {
						if len(sig) == 0 {
							return nil, fmt.Errorf("%w: empty define signature", ErrEval)
						}
						name, ok := sig[0].(Symbol)
						if !ok {
							return nil, fmt.Errorf("%w: define name must be a symbol", ErrEval)
						}
						cl, err := makeClosure(sig[1:], v[2:], env)
						if err != nil {
							return nil, err
						}
						env.Define(name, cl)
						return name, nil
					}
					name, ok := v[1].(Symbol)
					if !ok {
						return nil, fmt.Errorf("%w: define name must be a symbol", ErrEval)
					}
					val, err := Eval(v[2], env)
					if err != nil {
						return nil, err
					}
					env.Define(name, val)
					return name, nil
				case "set!":
					if len(v) != 3 {
						return nil, fmt.Errorf("%w: set! wants 2 args", ErrEval)
					}
					name, ok := v[1].(Symbol)
					if !ok {
						return nil, fmt.Errorf("%w: set! name must be a symbol", ErrEval)
					}
					val, err := Eval(v[2], env)
					if err != nil {
						return nil, err
					}
					if err := env.Set(name, val); err != nil {
						return nil, err
					}
					return val, nil
				case "lambda":
					if len(v) < 3 {
						return nil, fmt.Errorf("%w: lambda wants params and body", ErrEval)
					}
					params, ok := v[1].(List)
					if !ok {
						return nil, fmt.Errorf("%w: lambda params must be a list", ErrEval)
					}
					return makeClosure(params, v[2:], env)
				case "let", "let*":
					if len(v) < 3 {
						return nil, fmt.Errorf("%w: %s wants bindings and body", ErrEval, head)
					}
					binds, ok := v[1].(List)
					if !ok {
						return nil, fmt.Errorf("%w: %s bindings must be a list", ErrEval, head)
					}
					child := env.Child()
					evalEnv := env
					if head == "let*" {
						evalEnv = child
					}
					for _, b := range binds {
						pair, ok := b.(List)
						if !ok || len(pair) != 2 {
							return nil, fmt.Errorf("%w: malformed %s binding", ErrEval, head)
						}
						name, ok := pair[0].(Symbol)
						if !ok {
							return nil, fmt.Errorf("%w: %s binding name must be a symbol", ErrEval, head)
						}
						val, err := Eval(pair[1], evalEnv)
						if err != nil {
							return nil, err
						}
						child.Define(name, val)
					}
					env = child
					expr = List(append(List{Symbol("begin")}, v[2:]...))
					continue
				case "begin":
					if len(v) == 1 {
						return Bool(false), nil
					}
					for _, e := range v[1 : len(v)-1] {
						if _, err := Eval(e, env); err != nil {
							return nil, err
						}
					}
					expr = v[len(v)-1]
					continue
				case "and":
					res := Value(Bool(true))
					for _, e := range v[1:] {
						r, err := Eval(e, env)
						if err != nil {
							return nil, err
						}
						if !Truthy(r) {
							return Bool(false), nil
						}
						res = r
					}
					return res, nil
				case "or":
					for _, e := range v[1:] {
						r, err := Eval(e, env)
						if err != nil {
							return nil, err
						}
						if Truthy(r) {
							return r, nil
						}
					}
					return Bool(false), nil
				}
			}
			// Application.
			fn, err := Eval(v[0], env)
			if err != nil {
				return nil, err
			}
			args := make([]Value, len(v)-1)
			for i, a := range v[1:] {
				args[i], err = Eval(a, env)
				if err != nil {
					return nil, err
				}
			}
			switch f := fn.(type) {
			case *Builtin:
				return f.Fn(args)
			case *Closure:
				child := f.Env.Child()
				if err := bindParams(f, args, child); err != nil {
					return nil, err
				}
				env = child
				expr = List(append(List{Symbol("begin")}, f.Body...))
				continue
			default:
				return nil, fmt.Errorf("%w: %s is not callable", ErrEval, v[0].Repr())
			}
		case nil:
			return nil, fmt.Errorf("%w: nil expression", ErrEval)
		default:
			return nil, fmt.Errorf("%w: unknown value type %T", ErrEval, expr)
		}
	}
}

func makeClosure(params List, body []Value, env *Env) (*Closure, error) {
	cl := &Closure{Env: env, Body: body}
	for i, p := range params {
		s, ok := p.(Symbol)
		if !ok {
			return nil, fmt.Errorf("%w: lambda param must be a symbol", ErrEval)
		}
		if s == "." {
			if i != len(params)-2 {
				return nil, fmt.Errorf("%w: misplaced rest marker", ErrEval)
			}
			rest, ok := params[i+1].(Symbol)
			if !ok {
				return nil, fmt.Errorf("%w: rest param must be a symbol", ErrEval)
			}
			cl.Params = append(cl.Params, rest)
			cl.Variadic = true
			return cl, nil
		}
		cl.Params = append(cl.Params, s)
	}
	return cl, nil
}

func bindParams(f *Closure, args []Value, env *Env) error {
	if f.Variadic {
		fixed := len(f.Params) - 1
		if len(args) < fixed {
			return fmt.Errorf("%w: want at least %d args, got %d", ErrEval, fixed, len(args))
		}
		for i := 0; i < fixed; i++ {
			env.Define(f.Params[i], args[i])
		}
		env.Define(f.Params[fixed], List(append([]Value(nil), args[fixed:]...)))
		return nil
	}
	if len(args) != len(f.Params) {
		return fmt.Errorf("%w: want %d args, got %d", ErrEval, len(f.Params), len(args))
	}
	for i, p := range f.Params {
		env.Define(p, args[i])
	}
	return nil
}

// Run parses and evaluates src, returning the value of the last expression.
func Run(src string, env *Env) (Value, error) {
	exprs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var last Value = Bool(false)
	for _, e := range exprs {
		last, err = Eval(e, env)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}
