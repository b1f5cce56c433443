package route

import (
	"math/rand"
	"testing"

	"cadinterop/internal/geom"
)

// The search kernel reads the grid's slabs directly. These tests hold it
// to the bounds-checked accessor formulation (owner/isPin, where
// out-of-bounds reads blocked and not-a-pin) it replaced.

// nearPinRef is the five-lookup definition the near mask precomputes.
func nearPinRef(g *Grid, x, y int) bool {
	return g.isPin(x, y) || g.isPin(x-1, y) || g.isPin(x+1, y) ||
		g.isPin(x, y-1) || g.isPin(x, y+1)
}

// usableRef is usable written against the bounds-checked accessors.
func usableRef(g *Grid, sig int32, n node, rule Rule) bool {
	for i := 0; i < rule.WidthTracks; i++ {
		c := n
		if n.l == 0 {
			c.y += i
		} else {
			c.x += i
		}
		if c.x < 0 || c.y < 0 || c.x >= g.W || c.y >= g.H {
			return false
		}
		if o := g.owner(c.l, c.x, c.y); o != cellEmpty && !ownCell(o, sig) {
			return false
		}
		if g.isPin(c.x, c.y) {
			continue
		}
		for s := 1; s <= rule.SpacingTracks; s++ {
			for _, d := range [2]int{-s, s} {
				c2 := c
				if c.l == 0 {
					c2.y += d
				} else {
					c2.x += d
				}
				if g.isPin(c2.x, c2.y) {
					continue
				}
				if spacingAggressor(g.owner(c2.l, c2.x, c2.y), sig) {
					return false
				}
			}
		}
	}
	return true
}

// kernelGrid builds a w×h grid with pins on every corner and edge
// midpoint plus random interior ones, some pins off the die, and random
// occupancy drawn from every cell kind of two nets, "a" and "b".
func kernelGrid(rng *rand.Rand, w, h int) (g *Grid, a int32) {
	g = NewGrid(geom.R(0, 0, (w-1)*10, (h-1)*10), 10)
	var pa, pb []geom.Point
	for _, p := range []geom.Point{
		{X: 0, Y: 0}, {X: w - 1, Y: 0}, {X: 0, Y: h - 1}, {X: w - 1, Y: h - 1},
		{X: w / 2, Y: 0}, {X: w / 2, Y: h - 1}, {X: 0, Y: h / 2}, {X: w - 1, Y: h / 2},
		{X: -1, Y: 0}, {X: w, Y: h / 2}, {X: 0, Y: -1}, {X: w / 2, Y: h},
	} {
		if rng.Intn(2) == 0 {
			pa = append(pa, p)
		} else {
			pb = append(pb, p)
		}
	}
	for i := rng.Intn(w*h/4 + 1); i > 0; i-- {
		pb = append(pb, geom.Pt(rng.Intn(w), rng.Intn(h)))
	}
	reservePins(g, map[string][]geom.Point{"a": pa, "b": pb})
	a = g.tab.intern("a")
	b := g.tab.intern("b")
	kinds := []int32{cellEmpty, cellEmpty, cellEmpty, cellBlocked,
		a, a | kindPending, a | kindShield, a | kindHalo,
		b, b | kindPending, b | kindShield, b | kindHalo}
	for l := 0; l < 2; l++ {
		for i := range g.own[l] {
			if rng.Intn(3) == 0 {
				g.own[l][i] = kinds[rng.Intn(len(kinds))]
			}
		}
	}
	return g, a
}

var kernelSizes = [][2]int{{1, 1}, {1, 6}, {6, 1}, {2, 2}, {5, 7}, {9, 4}, {13, 11}}

// TestNearMaskMatchesPinLookups: the near-pin mask reservePins fills must
// equal the five-lookup definition on every cell, grid edges and corners
// included, with pins on every corner and edge and some off the die.
func TestNearMaskMatchesPinLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range kernelSizes {
		for trial := 0; trial < 20; trial++ {
			g, _ := kernelGrid(rng, sz[0], sz[1])
			for y := 0; y < g.H; y++ {
				for x := 0; x < g.W; x++ {
					if got, want := g.near[y*g.W+x], nearPinRef(g, x, y); got != want {
						t.Fatalf("%dx%d trial %d: near(%d,%d) = %v, want %v", g.W, g.H, trial, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestUsableMatchesAccessors: usable must agree with the accessor
// formulation for every node on and around the die — width and spacing
// windows crossing every edge — under every width/spacing combination.
func TestUsableMatchesAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sz := range kernelSizes {
		for trial := 0; trial < 10; trial++ {
			g, a := kernelGrid(rng, sz[0], sz[1])
			for wt := 1; wt <= 3; wt++ {
				for st := 0; st <= 3; st++ {
					rule := Rule{WidthTracks: wt, SpacingTracks: st}
					for l := 0; l < 2; l++ {
						for y := -2; y < g.H+2; y++ {
							for x := -2; x < g.W+2; x++ {
								n := node{l, x, y}
								if got, want := usable(g, a, n, rule), usableRef(g, a, n, rule); got != want {
									t.Fatalf("%dx%d trial %d rule %+v: usable(%v) = %v, want %v",
										g.W, g.H, trial, rule, n, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDecodeCell: every flat search index decodes to its node.
func TestDecodeCell(t *testing.T) {
	for _, sz := range kernelSizes {
		w, h := sz[0], sz[1]
		for l := 0; l < 2; l++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					i := int32(l*w*h + y*w + x)
					if got := decodeCell(i, w, w*h); got != (node{l, x, y}) {
						t.Fatalf("%dx%d: decodeCell(%d) = %v, want %v", w, h, i, got, node{l, x, y})
					}
				}
			}
		}
	}
}

// TestIncrementalCloneMasks: RouteIncremental's cloned grid must carry the
// pin flags and near-pin mask a full Route builds for the edited design.
func TestIncrementalCloneMasks(t *testing.T) {
	c := sparsePairs(t, 3)
	prev, err := Route(c.d, c.sparseOpts())
	if err != nil {
		t.Fatal(err)
	}
	inst := "p04b"
	pl := c.d.Placements[inst]
	old, err := c.d.InstanceRect(inst)
	if err != nil {
		t.Fatal(err)
	}
	pl.Pos = pl.Pos.Add(geom.Pt(20, 0))
	c.d.Placements[inst] = pl
	nu, err := c.d.InstanceRect(inst)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Route(c.d, c.sparseOpts())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := RouteIncremental(prev, c.d, old.Union(nu), c.sparseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if inc.IncrementalFallback != "" {
		t.Fatalf("incremental path fell back: %s", inc.IncrementalFallback)
	}
	gi, gf := inc.grid, full.grid
	for i := range gf.pin {
		if gi.pin[i] != gf.pin[i] || gi.near[i] != gf.near[i] {
			t.Fatalf("cell (%d,%d): clone pin/near = %v/%v, full route %v/%v",
				i%gf.W, i/gf.W, gi.pin[i], gi.near[i], gf.pin[i], gf.near[i])
		}
	}
	// The nudge moved a pin, so a clone that merely copied the previous
	// grid's mask would have failed above.
	moved := false
	for i := range gf.near {
		moved = moved || prev.grid.near[i] != gf.near[i]
	}
	if !moved {
		t.Fatal("the edit left the near-pin mask unchanged; the test checks nothing")
	}
}
