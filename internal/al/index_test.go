package al

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// TestParseNumMatchesParseFloat: the first-byte filter in front of
// strconv.ParseFloat never changes which atoms are numbers, or their
// values.
func TestParseNumMatchesParseFloat(t *testing.T) {
	same := func(tok string) bool {
		got, gotOK := parseNum(tok)
		want, err := strconv.ParseFloat(tok, 64)
		if gotOK != (err == nil) {
			return false
		}
		return !gotOK || got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	for _, tok := range []string{
		"0", "1", "-1", "+1", ".5", "-.5", "1.", "1e3", "1E-3", "1e999", "0x1p-2", "0X1P+2",
		"1_000", "0x_1p0", "_1", "1_", "inf", "Inf", "INF", "-inf", "+Infinity", "infinity",
		"infinit", "infinityx", "info", "nan", "NaN", "-nan", "+NaN", "nana", "n1", "i", "e5",
		"-", "+", ".", "..", "#t", "#f", "-x", "+inf_", "١", "a", "net0", "instance",
	} {
		if !same(tok) {
			t.Errorf("%q: parseNum disagrees with strconv.ParseFloat", tok)
		}
	}
	const alphabet = "0123456789+-._eEpPxXiInNfFaAtTyY#"
	gen := func(r *rand.Rand) string {
		b := make([]byte, 1+r.Intn(8))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	f := func(seed int64) bool {
		tok := gen(rand.New(rand.NewSource(seed)))
		if !same(tok) {
			t.Logf("%q: parseNum disagrees with strconv.ParseFloat", tok)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestNodeCursor walks an indexed form with the cursor API.
func TestNodeCursor(t *testing.T) {
	var ix Index
	if err := ix.Parse("(cell c1 \"s t\" 42 #t 'q ()) x"); err != nil {
		t.Fatal(err)
	}
	if ix.Forms() != 2 {
		t.Fatalf("forms = %d", ix.Forms())
	}
	c := ix.First()
	if !c.IsList() || c.Len() != 7 || !c.Kid(0).IsSym("cell") || c.Off() != 0 {
		t.Fatalf("bad form: list=%v len=%d off=%d", c.IsList(), c.Len(), c.Off())
	}
	if s, ok := c.Kid(1).Sym(); !ok || s != "c1" {
		t.Errorf("Kid(1).Sym() = %q, %v", s, ok)
	}
	if s, ok := c.Kid(2).Str(); !ok || s != "s t" {
		t.Errorf("Kid(2).Str() = %q, %v", s, ok)
	}
	if _, ok := c.Kid(2).Sym(); ok {
		t.Error("a string is not a symbol")
	}
	if v, ok := c.Kid(3).Num(); !ok || v != 42 {
		t.Errorf("Kid(3).Num() = %v, %v", v, ok)
	}
	if _, ok := c.Kid(3).Sym(); ok {
		t.Error("a number is not a symbol")
	}
	if _, ok := c.Kid(4).Sym(); ok || c.Kid(4).Repr() != "#t" {
		t.Errorf("#t: Sym ok=%v Repr=%q", ok, c.Kid(4).Repr())
	}
	if q := c.Kid(5); q.Len() != 2 || !q.Kid(0).IsSym("quote") || q.Kid(0).Off() != q.Off() || q.Repr() != "(quote q)" {
		t.Errorf("quote form: len=%d repr=%q", q.Len(), q.Repr())
	}
	if e := c.Kid(6); !e.IsList() || e.Len() != 0 || e.Repr() != "()" {
		t.Errorf("empty list: list=%v len=%d repr=%q", e.IsList(), e.Len(), e.Repr())
	}
	if k := c.Kid(7); k.Valid() || k.Off() != -1 || k.Len() != 0 {
		t.Error("out-of-range Kid is not absent")
	}
	if c.Kid(6).Next().Valid() {
		t.Error("last element has a next sibling")
	}
	if x := c.Next(); !x.IsSym("x") || x.Next().Valid() {
		t.Error("toplevel chain broken")
	}
}

// TestParseTrackedPositions: materialized values and position trees keep
// the shapes and offsets the reader has always produced, including
// PosTree.Kid's out-of-range fallback to the parent's offset.
func TestParseTrackedPositions(t *testing.T) {
	src := "(a (b 1) 'c \"s\" ())\n  z"
	vs, trees, err := ParseTracked(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Value{
		List{Symbol("a"), List{Symbol("b"), Num(1)}, List{Symbol("quote"), Symbol("c")}, Str("s"), List(nil)},
		Symbol("z"),
	}
	if !reflect.DeepEqual(vs, want) {
		t.Fatalf("values = %#v", vs)
	}
	pt := trees[0]
	offs := []int{pt.Off, pt.Kid(0).Off, pt.Kid(1).Off, pt.Kid(1).Kid(1).Off, pt.Kid(2).Off, pt.Kid(2).Kid(0).Off, pt.Kid(2).Kid(1).Off, pt.Kid(3).Off, pt.Kid(4).Off, trees[1].Off}
	if wantOffs := []int{0, 1, 3, 6, 9, 9, 10, 12, 16, 22}; !reflect.DeepEqual(offs, wantOffs) {
		t.Errorf("offsets = %v, want %v", offs, wantOffs)
	}
	if pt.Kid(4).Kids != nil || pt.Kid(0).Kids != nil {
		t.Error("empty lists and atoms must have nil Kids")
	}
	if k := pt.Kid(1).Kid(9); k.Off != pt.Kid(1).Off || k.Offset() != 3 {
		t.Errorf("out-of-range Kid falls back to %d, want the parent's 3", k.Off)
	}
	if vs, trees, err := ParseTracked("; only a comment\n"); vs != nil || trees != nil || err != nil {
		t.Errorf("empty input: %#v %#v %v", vs, trees, err)
	}
}

// TestParseErrorPositions pins the reader's error texts and offsets,
// which recovery points and diagnostics depend on.
func TestParseErrorPositions(t *testing.T) {
	deep := ""
	for i := 0; i <= MaxDepth+1; i++ {
		deep += "("
	}
	cases := []struct{ src, want string }{
		{"(a (b", "al: parse error: offset 3: unterminated list"},
		{"(a) )", "al: parse error: offset 4: unexpected )"},
		{"(a \"x", "al: parse error: offset 3: unterminated string"},
		{"'", "al: parse error: unexpected end of input"},
		{"(a \"\\q\")", `al: parse error: offset 3: bad string "\q": invalid syntax`},
		{deep, "al: parse error: offset 2001: nesting deeper than 2000"},
		{"''" + deep[:MaxDepth], "al: parse error: offset 2001: nesting deeper than 2000"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%.20q): %v, want %s", c.src, err, c.want)
		}
	}
	var reports []string
	vs, _ := ParseRecover("(a)) x (b (c) \"\\q\") (d) (e", func(off int, msg string) {
		reports = append(reports, strconv.Itoa(off)+" "+msg)
	})
	wantReports := []string{
		"3 al: parse error: offset 3: unexpected )",
		"24 al: parse error: offset 24: unterminated list",
	}
	if !reflect.DeepEqual(reports, wantReports) {
		t.Errorf("ParseRecover reports %q, want %q", reports, wantReports)
	}
	if wantVals := []Value{List{Symbol("a")}, List{Symbol("d")}}; !reflect.DeepEqual(vs, wantVals) {
		t.Errorf("ParseRecover values %#v, want %#v", vs, wantVals)
	}
}
