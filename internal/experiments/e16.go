package experiments

import (
	"bytes"
	"io"
	"reflect"

	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/geom"
	"cadinterop/internal/place"
	"cadinterop/internal/route"
	"cadinterop/internal/workgen"
)

// E16Scale measures this repo at scale. Part 1 pipes workgen's streaming
// interchange emitter straight into the streaming reader — the file never
// exists in memory — and reports the parse-window high-water mark against
// the input size, plus an equality verdict against the buffered reader
// where the buffered side is cheap enough to run. Part 2 routes placed
// E9-style designs at two sizes and reports the routed totals. Every
// number is a count, size or ratio — no timing — so the report is
// byte-identical at any worker count; ns/net lives in the benchmark suite
// (BenchmarkExchangeScale, BenchmarkRouteScale).
func E16Scale() (*Report, error) {
	r := &Report{ID: "E16", Title: "scale: streaming interchange window and routing (seed 16)"}

	r.addf("streaming interchange: emitter piped to reader, no materialized file")
	r.addf("%8s %10s %8s %9s %7s %9s %10s", "nets", "bytes", "window", "win/input", "diags", "manifest", "vs-buffer")
	for _, n := range []int{1_000, 10_000, 100_000} {
		opts := workgen.ScaleOptions{Nets: n, Seed: 16}
		pr, pw := io.Pipe()
		infoc := make(chan workgen.ScaleInfo, 1)
		go func() {
			info, err := workgen.ScaleExchange(pw, opts)
			pw.CloseWithError(err)
			infoc <- info
		}()
		nl, diags, stats, err := exchange.ReadStreamStats(pr, exchange.ReadOptions{RequireTrailer: true})
		info := <-infoc
		if err != nil {
			return nil, err
		}
		st := nl.Stats()
		manifest := "match"
		if st.Nets != info.Nets || st.Instances != info.Insts || st.Pins != info.Conns {
			manifest = "MISMATCH"
		}
		// The buffered reader needs the whole file in memory — run the
		// cross-check at the sizes where that is cheap; the byte-identity
		// of emitter and writer plus the trailer checksum cover the rest.
		verdict := "(skipped)"
		if n <= 10_000 {
			var buf bytes.Buffer
			if _, err := workgen.ScaleExchange(&buf, opts); err != nil {
				return nil, err
			}
			bnl, bdiags, berr := exchange.ReadBytes(buf.Bytes(), exchange.ReadOptions{RequireTrailer: true})
			if berr != nil {
				return nil, berr
			}
			verdict = "identical"
			if !reflect.DeepEqual(bnl, nl) || !reflect.DeepEqual(bdiags, diags) {
				verdict = "DIVERGED"
			}
		}
		r.addf("%8d %10d %8d %8.2f%% %7d %9s %10s",
			n, info.Bytes, stats.MaxWindow,
			100*float64(stats.MaxWindow)/float64(info.Bytes),
			diag.Count(diags, diag.Error), manifest, verdict)
	}

	r.addf("")
	r.addf("routing: placed designs, one serial run per size")
	r.addf("%6s %8s %6s %7s", "cells", "wirelen", "vias", "failed")
	for _, cells := range []int{32, 64} {
		d, fp, err := workgen.PhysDesign(workgen.PhysOptions{
			Cells: cells, Seed: 16, CriticalNets: 3, Keepouts: 1})
		if err != nil {
			return nil, err
		}
		if _, err := place.Place(d, place.Options{Seed: 5}); err != nil {
			return nil, err
		}
		rules := make(map[string]route.Rule, len(fp.NetRules))
		for _, rr := range fp.NetRules {
			rules[rr.Net] = route.Rule{
				WidthTracks: max(rr.WidthTracks, 1), SpacingTracks: rr.SpacingTracks, Shield: rr.Shield}
		}
		var kos []geom.Rect
		for _, k := range fp.Keepouts {
			kos = append(kos, k.Rect)
		}
		res, err := route.Route(d, route.Options{Pitch: 5, Rules: rules, Keepouts: kos})
		if err != nil {
			return nil, err
		}
		r.addf("%6d %8d %6d %7d", cells, res.Wirelength, res.Vias, len(res.Failed))
	}
	return r, nil
}

// routedEqual compares the routed output proper — everything except the
// incremental router's observability fields.
func routedEqual(a, b *route.Result) bool {
	return reflect.DeepEqual(a.Segments, b.Segments) &&
		a.Wirelength == b.Wirelength && a.Vias == b.Vias &&
		reflect.DeepEqual(a.Failed, b.Failed) &&
		reflect.DeepEqual(a.FailReasons, b.FailReasons) &&
		a.ShieldLen == b.ShieldLen
}
