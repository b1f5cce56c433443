package route

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/phys"
)

// routeGoldenFile pins the router's routed output — segments, totals,
// failures, shield length, every net's probe box and every decoded grid
// cell — over a fixed set of designs: the E9-style workgen cases, the
// seam-chain hazards, a fixed-seed sweep of the property-test space and
// one design an order of magnitude larger. A change to the search kernel
// or the routing loop must leave every line byte-identical.
//
// Regenerate (only for a deliberate output change, named in CHANGES.md):
//
//	go test ./internal/route -run TestRouteGolden -update
const routeGoldenFile = "testdata/route_golden.txt"

var updateGolden = flag.Bool("update", false, "rewrite testdata/route_golden.txt")

// goldenInput is one named routing problem.
type goldenInput struct {
	name  string
	d     *phys.Design
	opts  Options
	large bool // skipped under -short
}

// goldenInputs builds the pinned routing problems in file order.
func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	var in []goldenInput
	workgenCase := func(prefix string, cells, crit, kos int, seed int64, pitch int, large bool) {
		c, _ := incrementalCase(t, cells, crit, kos, seed)
		name := fmt.Sprintf("%s/cells=%d/crit=%d/kos=%d/seed=%d", prefix, cells, crit, kos, seed)
		in = append(in, goldenInput{name: name, d: c.d, large: large,
			opts: Options{Pitch: pitch, Rules: c.rules, Keepouts: c.keepouts}})
	}
	// The E9-style cases, from small to congested enough to rip up.
	for _, c := range []struct {
		cells, crit, kos int
		seed             int64
	}{{12, 0, 0, 3}, {24, 3, 1, 11}, {40, 0, 0, 13}, {48, 4, 2, 7}} {
		workgenCase("workgen", c.cells, c.crit, c.kos, c.seed, 5, false)
	}
	// The congestion-blind ablation exercises the plain cost function.
	c, _ := incrementalCase(t, 24, 3, 1, 11)
	in = append(in, goldenInput{name: "workgen/cells=24/crit=3/kos=1/seed=11/plain", d: c.d,
		opts: Options{Pitch: 5, Rules: c.rules, Keepouts: c.keepouts, PlainBFS: true}})

	// Seam hazards: a net straddling a cut line, a keepout spanning two
	// regions, a shielded wide net crossing a cut.
	seam := seamChain(t)
	for _, sc := range []struct {
		name     string
		rules    map[string]Rule
		keepouts []geom.Rect
	}{
		{name: "net-straddles-vertical-seam"},
		{name: "keepout-spans-two-shards", keepouts: []geom.Rect{geom.R(180, 60, 260, 90)}},
		{name: "shield-rule-crosses-seam",
			rules: map[string]Rule{"n3": {WidthTracks: 2, SpacingTracks: 1, Shield: true}}},
	} {
		in = append(in, goldenInput{name: "seam/" + sc.name, d: seam,
			opts: Options{Pitch: 5, Rules: sc.rules, Keepouts: sc.keepouts}})
	}

	// A fixed-seed sweep over the property tests' parameter space.
	x := uint64(14)
	for i := 0; i < 20; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		workgenCase("quick", 8+int(z%25), int(z>>8)%5, int(z>>16)%3, int64(uint16(z>>24)), 5, false)
	}

	// An order of magnitude past the cases above.
	workgenCase("scale", 192, 6, 2, 61, 5, true)
	return in
}

// goldenLine routes one input and renders its pinned line: readable
// totals, then the sha256 of the routed result and of the decoded grid.
func goldenLine(t *testing.T, in goldenInput) string {
	t.Helper()
	res, err := Route(in.d, in.opts)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	hr := sha256.New()
	writeRouted(hr, res)
	hg := sha256.New()
	g := res.grid
	fmt.Fprintf(hg, "%dx%d\n", g.W, g.H)
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				fmt.Fprintf(hg, "%s\n", g.Owner(l, x, y))
			}
		}
	}
	return fmt.Sprintf("%s wl=%d vias=%d failed=%d shield=%d routed=%s grid=%s",
		in.name, res.Wirelength, res.Vias, len(res.Failed), res.ShieldLen,
		hex.EncodeToString(hr.Sum(nil)), hex.EncodeToString(hg.Sum(nil)))
}

// writeRouted renders the routed output canonically: totals, failures in
// order, segments and probe boxes by sorted net name.
func writeRouted(w io.Writer, res *Result) {
	fmt.Fprintf(w, "wirelength %d\nvias %d\nshield %d\n", res.Wirelength, res.Vias, res.ShieldLen)
	for i, n := range res.Failed {
		fmt.Fprintf(w, "failed %s: %s\n", n, res.FailReasons[i])
	}
	nets := make([]string, 0, len(res.Segments))
	for n := range res.Segments {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	for _, n := range nets {
		fmt.Fprintf(w, "net %s\n", n)
		for _, s := range res.Segments[n] {
			fmt.Fprintf(w, "  %d %d,%d %d,%d\n", s.Layer, s.A.X, s.A.Y, s.B.X, s.B.Y)
		}
	}
	nets = nets[:0]
	for n := range res.probe {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	for _, n := range nets {
		p := res.probe[n]
		fmt.Fprintf(w, "probe %s %d,%d %d,%d\n", n, p.Min.X, p.Min.Y, p.Max.X, p.Max.Y)
	}
}

// TestRouteGolden holds Route to the pinned lines.
func TestRouteGolden(t *testing.T) {
	inputs := goldenInputs(t)
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Route golden pin: one line per input, totals plus the sha256 of the routed\n")
		b.WriteString("# result (segments, failures, probe boxes) and of the decoded grid. See golden_test.go.\n")
		for _, in := range inputs {
			b.WriteString(goldenLine(t, in) + "\n")
		}
		if err := os.WriteFile(routeGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(routeGoldenFile)
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
	if len(want) != len(inputs) {
		t.Fatalf("golden has %d lines, %d inputs", len(want), len(inputs))
	}
	for i, in := range inputs {
		if in.large && testing.Short() {
			continue
		}
		if got := goldenLine(t, in); got != want[i] {
			t.Errorf("%s:\n got  %s\n want %s", in.name, got, want[i])
		}
	}
}

// seamChain builds a six-buffer chain on a 400×200 die placed so that, at
// pitch 5, net n3 straddles grid x=40 (DBU 200) and net n5 crosses both
// x=40 and y=20 (DBU 100): u0..u4 sit in one row with a gap over x=40, u5
// in a second row past y=20.
func seamChain(t testing.TB) *phys.Design {
	t.Helper()
	tech := phys.Tech{
		Name: "t",
		Layers: []phys.Layer{
			{Name: "M1", Dir: phys.Horizontal, Pitch: 10, MinWidth: 4, MinSpace: 4},
			{Name: "M2", Dir: phys.Vertical, Pitch: 10, MinWidth: 4, MinSpace: 4},
		},
		SiteWidth: 10, SiteHeight: 20,
	}
	lib := phys.NewLibrary(tech)
	lib.AddMacro(&phys.Macro{
		Name: "BUF", Size: geom.Pt(40, 20), Site: "core",
		Pins: []*phys.Pin{
			{Name: "A", Dir: netlist.Input, Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(0, 8, 4, 12)}}, Access: phys.AccessWest},
			{Name: "Y", Dir: netlist.Output, Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(36, 8, 40, 12)}}, Access: phys.AccessEast},
		},
	})
	nl := netlist.New()
	buf := mustCell(nl, "BUF")
	buf.Primitive = true
	buf.AddPort("A", netlist.Input)
	buf.AddPort("Y", netlist.Output)
	top := mustCell(nl, "chip")
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("u%d", i)
		top.AddInstance(name, "BUF")
		top.Connect(name, "A", fmt.Sprintf("n%d", i))
		top.Connect(name, "Y", fmt.Sprintf("n%d", i+1))
	}
	nl.Top = "chip"
	d, err := phys.NewDesign("chip", geom.R(0, 0, 400, 200), lib, nl, "chip")
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range []geom.Point{
		{X: 10, Y: 40}, {X: 80, Y: 40}, {X: 130, Y: 40}, // row 0
		{X: 215, Y: 40}, {X: 285, Y: 40}, // row 0: u2.Y→u3.A jumps DBU 200
		{X: 130, Y: 120}, // row 1: u4.Y→u5.A crosses both cut lines
	} {
		d.Placements[fmt.Sprintf("u%d", i)] = phys.Placement{Pos: pos}
	}
	return d
}
