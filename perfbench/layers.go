package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"cadinterop/internal/al"
	"cadinterop/internal/backplane"
	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/hdl"
	"cadinterop/internal/memo"
	"cadinterop/internal/netlist"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/place"
	"cadinterop/internal/route"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/schematic/vl"
	"cadinterop/internal/serve"
	"cadinterop/internal/workgen"
)

// Layer sample sizes for the traced run.
const (
	layerVetBundles = 12
	layerPnrDesigns = 3
	layerDaemonOps  = 108 // per client, two blocks
	layerPairs      = 3   // HTTP-versus-direct pairs per daemon body
	memoGets        = 2000
)

// Recorder ID bases (in units of 1<<24 IDs): the traced op pass uses one
// per client from 0, the layer sections one shared recorder, and the
// daemon layer loop one per client.
const (
	layerRecBase  = 32
	daemonRecBase = 33
)

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"al.parse_ms_per_knet", "ms/knet"},
	{"al.parse_allocs_per_net", "allocs/net"},
	{"exchange.read_ms_per_knet", "ms/knet"},
	{"exchange.read_allocs_per_net", "allocs/net"},
	{"exchange.walk_ms_per_knet", "ms/knet"},
	{"exchange.stream_ms_per_knet", "ms/knet"},
	{"exchange.stream_allocs_per_net", "allocs/net"},
	{"vet.gc_cpu_share", "ratio"},
	{"cd.read_ms_per_kb", "ms/kB"},
	{"cd.read_allocs_per_kb", "allocs/kB"},
	{"cd.stream_ms_per_kb", "ms/kB"},
	{"cd.stream_allocs_per_kb", "allocs/kB"},
	{"vl.read_ms_per_kb", "ms/kB"},
	{"hdl.parse_ms_per_kb", "ms/kB"},
	{"filecheck.self_ms", "ms"},
	{"workgen.phys_ms", "ms"},
	{"backplane.translate_ms", "ms"},
	{"place.ms", "ms"},
	{"route.ms", "ms"},
	{"route.serial_ms", "ms"},
	{"route.bfs_searches", "count"},
	{"route.ripup_passes", "count"},
	{"route.spec_commit_ratio", "ratio"},
	{"route.alloc_mb", "MB"},
	{"route.audit_ms", "ms"},
	{"backplane.fanout_overlap", "ratio"},
	{"serve.translate_ms_p50", "ms"},
	{"serve.migrate_ms_p50", "ms"},
	{"serve.flow_ms_p50", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"par.gate.wait_share", "ratio"},
	{"par.gate.shed", "count"},
	{"memo.hit_rate", "ratio"},
	{"memo.get_us", "us"},
	{"exchange.fingerprint_ms", "ms"},
	{"workgen.schematic_ms", "ms"},
	{"cd.write_ms", "ms"},
	{"cd.decode_ms", "ms"},
	{"workflow.flow_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layerRun accumulates the traced run's layer metrics and check outcomes.
type layerRun struct {
	rec       *Recorder
	extra     []Span // spans recorded by the layer's own client goroutines
	op        int64
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	errs      []error
}

func (l *layerRun) set(name string, v float64, samples int) {
	l.values[name] = v
	l.samples[name] = samples
}

// check counts one output comparison of the traced run.
func (l *layerRun) check(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err)
		}
	}
}

// call is one measured call into a layer: wall time plus the heap
// allocations it made, from runtime.MemStats deltas taken outside the
// span. Calls are single-threaded unless the layer spawns its own workers.
type call struct {
	d       time.Duration
	mallocs uint64
	bytes   uint64
}

func (c *call) add(o call) {
	c.d += o.d
	c.mallocs += o.mallocs
	c.bytes += o.bytes
}

func (l *layerRun) measure(parent int, name string, fn func()) call {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	d := l.rec.Do(parent, l.op, name, func(int) { fn() })
	runtime.ReadMemStats(&b)
	return call{d: d, mallocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc}
}

// netlistManifest counts a parsed netlist the way workgen.ScaleInfo does.
func netlistManifest(nl *netlist.Netlist) workgen.ScaleInfo {
	var m workgen.ScaleInfo
	m.Cells = len(nl.Cells)
	for _, c := range nl.Cells {
		m.Ports += len(c.Ports)
		m.Nets += len(c.Nets)
		m.Insts += len(c.Instances)
		for _, n := range c.Nets {
			m.Attrs += len(n.Attrs)
		}
		for _, in := range c.Instances {
			m.Conns += len(in.Conns)
			m.Attrs += len(in.Attrs)
		}
	}
	return m
}

// vetLayers times every reader on the seed's first bundles, buffered and
// streaming twins side by side, and the GC share of plain vet ops.
func vetLayers(l *layerRun, seed int64, work string) error {
	dir, err := os.MkdirTemp(work, "vet-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bundles, _, err := genVet(seed, dir, vetBundles)
	if err != nil {
		return err
	}
	bundles = bundles[:layerVetBundles]
	var (
		knets, cdKB, vlKB, hdlKB              float64
		parse, read, stream, cdRead, cdStream call
		vlRead, hdlParse                      call
		selfMS                                float64
	)
	opts := func(src string) exchange.ReadOptions { return exchange.ReadOptions{Mode: diag.Strict, Source: src} }
	for i, b := range bundles {
		l.op = int64(i)
		root := l.rec.Start(0, l.op, "layer.vet")
		edfPath, edf := b.file(".edf")
		src := string(edf)

		// serve.Check at Jobs 1 runs the same buffered readers one after
		// another, so what it spends beyond them is filecheck's own work:
		// file reads, extension dispatch and verdict rendering. It runs
		// once before the readers and once after, and the two are
		// averaged, so neither side always gets the warmer caches.
		checkJobs1 := func() time.Duration {
			var out bytes.Buffer
			var cherr error
			c := l.measure(root, "serve.Check.jobs1", func() {
				cherr = serve.Check(context.Background(), &out, serve.CheckRequest{Files: b.files, Jobs: 1}, nil)
			})
			if cherr == nil && out.String() != b.want {
				cherr = fmt.Errorf("%s: Jobs 1 verdict block differs from the clean block", edfPath)
			}
			l.check(cherr)
			return c.d
		}
		checkMS := checkJobs1()
		var perr error
		c := l.measure(root, "al.Parse", func() { _, perr = al.Parse(src) })
		l.check(perr)
		parse.add(c)

		var nl, nl2 *netlist.Netlist
		var rerr, serr error
		c = l.measure(root, "exchange.ReadBytes", func() { nl, _, rerr = exchange.ReadBytes(edf, opts(edfPath)) })
		read.add(c)
		bufMS := c.d
		c = l.measure(root, "exchange.ReadStream", func() { nl2, _, serr = exchange.ReadStream(bytes.NewReader(edf), opts(edfPath)) })
		stream.add(c)
		l.check(firstErr(rerr, serr))
		if rerr == nil && serr == nil {
			want := b.info
			want.Bytes = 0 // a byte count, not an element count
			if got := netlistManifest(nl); got != want {
				l.check(fmt.Errorf("%s: parsed manifest %+v, generated %+v", edfPath, got, want))
			} else {
				l.check(nil)
			}
			f1, e1 := exchange.Fingerprint(nl)
			f2, e2 := exchange.Fingerprint(nl2)
			if err := firstErr(e1, e2); err != nil || f1 != f2 {
				l.check(fmt.Errorf("%s: buffered and streaming exchange readers disagree (%v)", edfPath, err))
			} else {
				l.check(nil)
			}
		}
		knets += float64(b.info.Nets) / 1000

		cdPath, cdData := b.file(".cd")
		cdOpts := cd.ReadOptions{Mode: diag.Strict, Source: cdPath}
		var d1, d2 *schematic.Design
		var cerr, cserr error
		c = l.measure(root, "cd.ReadBytes", func() { d1, _, cerr = cd.ReadBytes(cdData, cdOpts) })
		cdRead.add(c)
		cdMS := c.d
		c = l.measure(root, "cd.ReadStream", func() { d2, _, cserr = cd.ReadStream(bytes.NewReader(cdData), cdOpts) })
		cdStream.add(c)
		l.check(firstErr(cerr, cserr))
		if cerr == nil && cserr == nil {
			l.check(sameCD(cdPath, d1, d2))
		}
		cdKB += float64(len(cdData)) / 1024

		vlPath, vlData := b.file(".vl")
		var verr error
		c = l.measure(root, "vl.ReadWithDiagnostics", func() {
			_, _, verr = vl.ReadWithDiagnostics(bytes.NewReader(vlData), vl.ReadOptions{Mode: diag.Strict, Source: vlPath})
		})
		l.check(verr)
		vlRead.add(c)
		vlMS := c.d
		vlKB += float64(len(vlData)) / 1024

		vPath, vData := b.file(".v")
		vsrc := string(vData)
		var herr error
		c = l.measure(root, "hdl.ParseWithDiagnostics", func() {
			_, _, herr = hdl.ParseWithDiagnostics(vsrc, hdl.ParseOptions{Mode: diag.Strict, Source: vPath})
		})
		l.check(herr)
		hdlParse.add(c)
		hdlMS := c.d
		hdlKB += float64(len(vData)) / 1024

		checkMS = (checkMS + checkJobs1()) / 2
		selfMS += ms(checkMS - bufMS - cdMS - vlMS - hdlMS)
		l.rec.End(root)
	}
	perKnet := func(c call) float64 { return ms(c.d) / knets }
	perNet := func(c call) float64 { return float64(c.mallocs) / (knets * 1000) }
	n := len(bundles)
	l.set("al.parse_ms_per_knet", perKnet(parse), n)
	l.set("al.parse_allocs_per_net", perNet(parse), n)
	l.set("exchange.read_ms_per_knet", perKnet(read), n)
	l.set("exchange.read_allocs_per_net", perNet(read), n)
	l.set("exchange.walk_ms_per_knet", perKnet(read)-perKnet(parse), n)
	l.set("exchange.stream_ms_per_knet", perKnet(stream), n)
	l.set("exchange.stream_allocs_per_net", perNet(stream), n)
	l.set("cd.read_ms_per_kb", ms(cdRead.d)/cdKB, n)
	l.set("cd.read_allocs_per_kb", float64(cdRead.mallocs)/cdKB, n)
	l.set("cd.stream_ms_per_kb", ms(cdStream.d)/cdKB, n)
	l.set("cd.stream_allocs_per_kb", float64(cdStream.mallocs)/cdKB, n)
	l.set("vl.read_ms_per_kb", ms(vlRead.d)/vlKB, n)
	l.set("hdl.parse_ms_per_kb", ms(hdlParse.d)/hdlKB, n)
	l.set("filecheck.self_ms", selfMS/float64(n), n)

	// GC share of plain vet ops (Jobs 0), from the runtime's own CPU
	// accounting over a pass of serve.Check calls.
	gc0, all0 := gcCPU()
	for i, b := range bundles {
		l.check(vetCheck(b, l.rec, 0, int64(1000+i)))
	}
	gc1, all1 := gcCPU()
	share := 0.0
	if all1 > all0 {
		share = (gc1 - gc0) / (all1 - all0)
	}
	l.set("vet.gc_cpu_share", share, n)
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// sameCD reports whether two parsed cd designs serialize identically.
func sameCD(name string, a, b *schematic.Design) error {
	var wa, wb bytes.Buffer
	if err := firstErr(cd.Write(&wa, a), cd.Write(&wb, b)); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		return fmt.Errorf("%s: buffered and streaming cd readers disagree", name)
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates, in
// seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// routeSame reports whether two routing results are identical.
func routeSame(a, b *route.Result) bool {
	return a.Wirelength == b.Wirelength && a.Vias == b.Vias && a.ShieldLen == b.ShieldLen &&
		reflect.DeepEqual(a.Failed, b.Failed) && reflect.DeepEqual(a.Segments, b.Segments)
}

// pnrLayers replays serve.Translate's per-tool flow stage by stage —
// workgen.PhysDesign → backplane.Translate → place.Place → route.Route →
// route.Audit — on the seed's first catalogue designs, checks each tool's
// table row against serve.Translate's, and routes every placement a
// second time with the serial router to compare the twins.
func pnrLayers(l *layerRun, seed int64) error {
	catalogue, err := parseDigests(pnrDigestFile)
	if err != nil {
		return err
	}
	blks, _ := pnrDesigns(seed, catalogue, 1)
	pool := blks[0]
	sort.Slice(pool, func(i, j int) bool { return pool[i].costMS < pool[j].costMS })
	tools := backplane.AllTools()
	workers := par.N(par.Workers(0))
	var (
		phys, tr, pl, rt, serial, audit time.Duration
		runs                            int
		searches, passes                int64
		committed, recomputed           int64
		allocBytes                      uint64
		overlap                         []float64
	)
	for i := 0; i < layerPnrDesigns; i++ {
		// Spread the sample over the cost strata: cheap, middle, dear.
		e := pool[i*pnrPool/layerPnrDesigns+pnrPool/(2*layerPnrDesigns)]
		k := e.key
		l.op = int64(i)
		root := l.rec.Start(0, l.op, "layer.pnr")
		var table []byte
		var terr error
		opWall := l.measure(root, "serve.Translate", func() { table, terr = translateTable(k, 0) }).d
		if terr == nil && sha(table) != e.sha {
			terr = fmt.Errorf("pnr cells %d seed %d: table differs from the stored digest", k.cells, k.seed)
		}
		l.check(terr)
		rows := strings.Split(string(table), "\n")
		var toolSum time.Duration
		for ti, tool := range tools {
			tsp := l.rec.Start(root, l.op, "pnr.tool")
			var pd *physDesign
			c := l.measure(tsp, "workgen.PhysDesign", func() { pd, err = genPhys(k) })
			if err != nil {
				return err
			}
			phys += c.d
			toolSum += c.d
			var in *backplane.ToolInput
			var loss *backplane.Loss
			c = l.measure(tsp, "backplane.Translate", func() { in, loss = backplane.Translate(pd.fp, pd.d.Lib, tool) })
			tr += c.d
			toolSum += c.d
			var pres *place.Result
			var perr error
			c = l.measure(tsp, "place.Place", func() { pres, perr = place.Place(pd.d, place.Options{Seed: 5, Keepouts: in.Keepouts}) })
			pl += c.d
			toolSum += c.d
			if perr != nil {
				l.check(perr)
				l.rec.End(tsp)
				continue
			}
			reg := obs.NewRegistry()
			ropts := route.Options{Pitch: 5, Rules: in.RouteRules, Keepouts: in.Keepouts, Workers: workers, Metrics: reg}
			var rres *route.Result
			var rerr error
			c = l.measure(tsp, "route.Route", func() { rres, rerr = route.Route(pd.d, ropts) })
			rt += c.d
			toolSum += c.d
			allocBytes += c.bytes
			if rerr != nil {
				l.check(rerr)
				l.rec.End(tsp)
				continue
			}
			searches += reg.Counter("route.bfs.searches").Value()
			passes += reg.Counter("route.ripup.passes").Value()
			committed += int64(rres.SpecCommitted)
			recomputed += int64(rres.SpecRecomputed)
			var viol []route.Violation
			c = l.measure(tsp, "route.Audit", func() { viol = route.Audit(rres, backplane.FullRules(pd.fp)) })
			audit += c.d
			toolSum += c.d
			runs++

			// The replica must reproduce serve.Translate's row for this tool.
			var dropped, degraded int
			for _, it := range loss.Items {
				if it.Kind == backplane.LossDropped {
					dropped++
				} else {
					degraded++
				}
			}
			row := fmt.Sprintf("%-8s %6d %10d %8d %8d %6d %12d %10d", tool.Name, dropped, degraded,
				pres.FinalHPWL, rres.Wirelength, rres.Vias, len(viol), len(rres.Failed))
			if terr == nil && (len(rows) <= 1+ti || rows[1+ti] != row) {
				l.check(fmt.Errorf("pnr cells %d seed %d tool %s: replica row %q differs from serve.Translate", k.cells, k.seed, tool.Name, row))
			} else {
				l.check(nil)
			}

			// Serial twin: the same design, placed the same way, routed
			// with Workers 1.
			pd2, err := genPhys(k)
			if err != nil {
				return err
			}
			in2, _ := backplane.Translate(pd2.fp, pd2.d.Lib, tool)
			if _, err := place.Place(pd2.d, place.Options{Seed: 5, Keepouts: in2.Keepouts}); err != nil {
				l.check(err)
				l.rec.End(tsp)
				continue
			}
			sopts := route.Options{Pitch: 5, Rules: in2.RouteRules, Keepouts: in2.Keepouts, Workers: 1}
			var sres *route.Result
			var serr error
			c = l.measure(tsp, "route.Route.serial", func() { sres, serr = route.Route(pd2.d, sopts) })
			serial += c.d
			if serr == nil && !routeSame(rres, sres) {
				serr = fmt.Errorf("pnr cells %d seed %d tool %s: speculative and serial routes differ", k.cells, k.seed, tool.Name)
			}
			l.check(serr)
			l.rec.End(tsp)
		}
		overlap = append(overlap, float64(toolSum)/(float64(opWall)*float64(min(workers, len(tools)))))
		l.rec.End(root)
	}
	if runs == 0 {
		return fmt.Errorf("pnr layers: no tool flow completed")
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(runs) }
	l.set("workgen.phys_ms", per(phys), runs)
	l.set("backplane.translate_ms", per(tr), runs)
	l.set("place.ms", per(pl), runs)
	l.set("route.ms", per(rt), runs)
	l.set("route.serial_ms", per(serial), runs)
	l.set("route.audit_ms", per(audit), runs)
	l.set("route.bfs_searches", float64(searches)/float64(runs), runs)
	l.set("route.ripup_passes", float64(passes)/float64(runs), runs)
	ratio := 1.0
	if committed+recomputed > 0 {
		ratio = float64(committed) / float64(committed+recomputed)
	}
	l.set("route.spec_commit_ratio", ratio, runs)
	l.set("route.alloc_mb", float64(allocBytes)/float64(runs)/(1<<20), runs)
	l.set("backplane.fanout_overlap", median(overlap), len(overlap))
	return nil
}

// physDesign is one generated catalogue design with its floorplan.
type physDesign struct {
	d  *phys.Design
	fp *floorplan.Floorplan
}

// genPhys generates a catalogue design exactly as serve.Translate does.
func genPhys(k pnrKey) (*physDesign, error) {
	d, fp, err := workgen.PhysDesign(workgen.PhysOptions{Cells: k.cells, Seed: int64(k.seed), CriticalNets: 3, Keepouts: 1})
	return &physDesign{d, fp}, err
}

// daemonLayers runs a short two-client loop against a fresh daemon and
// splits it by endpoint, then compares each endpoint with a direct call on
// the same warm cache, and times the layers a memo hit passes through.
func daemonLayers(l *layerRun, seed int64) error {
	clients := daemonClients()
	p, rig, err := setupDaemon(seed, layerDaemonOps*clients)
	if err != nil {
		return err
	}
	defer p.close()
	reg, cache := rig.srv.Metrics(), rig.srv.Cache()
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	adm0, q0, shed0 := counter("par.gate.admitted"), counter("par.gate.queued"), counter("par.gate.shed")
	hits0, miss0 := cache.Hits(), cache.Misses()

	epoch := l.rec.epoch
	recs := make([]*Recorder, len(p.clients))
	var wg sync.WaitGroup
	var fails failures
	for c, ops := range p.clients {
		recs[c] = newRecorder(epoch, (daemonRecBase+c)<<24)
		wg.Add(1)
		go func(c int, ops []opFunc) {
			defer wg.Done()
			for j, op := range ops {
				id := opID(c, j)
				root := recs[c].Start(0, id, "op.daemon")
				if err := op(recs[c], root, id); err != nil {
					fails.add(err)
				}
				recs[c].End(root)
			}
		}(c, ops)
	}
	wg.Wait()
	l.attempted += p.ops()
	l.failed += fails.n
	l.errs = append(l.errs, fails.errs...)
	byName := map[string][]float64{}
	for _, r := range recs {
		for _, s := range r.Spans() {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
		}
		l.extra = append(l.extra, r.Spans()...)
	}
	per := p.ops() / kinds
	l.set("serve.translate_ms_p50", median(byName["http/v1/translate"]), per)
	l.set("serve.migrate_ms_p50", median(byName["http/v1/migrate"]), per)
	l.set("serve.flow_ms_p50", median(byName["http/v1/flow"]), per)
	adm, queued := counter("par.gate.admitted")-adm0, counter("par.gate.queued")-q0
	l.set("par.gate.wait_share", float64(queued)/float64(max(adm, 1)), int(adm))
	l.set("par.gate.shed", float64(counter("par.gate.shed")-shed0), int(adm))
	hits, misses := cache.Hits()-hits0, cache.Misses()-miss0
	l.set("memo.hit_rate", float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))

	// Endpoint versus direct call, one at a time, alternating order.
	var overhead, flowMS []float64
	for i, q := range rig.reqs {
		l.op = int64(i)
		for k := 0; k < layerPairs; k++ {
			var h, d time.Duration
			var herr, derr error
			httpCall := func() { h = l.rec.Do(0, l.op, "http"+kindPath[q.kind], func(int) { herr = rig.post(q) }) }
			directCall := func() {
				d = l.rec.Do(0, l.op, "serve.direct"+kindPath[q.kind], func(int) {
					var got serve.Response
					got, _, derr = direct(rig.srv, q)
					if derr == nil && (got.Output != q.want.Output || got.Exit != q.want.Exit) {
						derr = fmt.Errorf("%s %s: direct call not repeatable", kindPath[q.kind], q.body)
					}
				})
			}
			if k%2 == 0 {
				httpCall()
				directCall()
			} else {
				directCall()
				httpCall()
			}
			l.check(firstErr(herr, derr))
			overhead = append(overhead, ms(h-d))
			if q.kind == kindFlow {
				flowMS = append(flowMS, ms(d))
			}
		}
	}
	l.set("serve.http_overhead_ms", median(overhead), len(overhead))
	l.set("workflow.flow_ms", median(flowMS), len(flowMS))

	// A memo hit: one Get of a cached payload the size of a rendered table.
	mc := memo.New(nil)
	key := memo.Key{Content: sha(rig.reqs[0].body), Tool: "perfbench", Options: memo.NewFP("perfbench/v1").Sum()}
	mc.Put(key, []byte(rig.reqs[0].want.Output))
	var hit bool
	d := l.rec.Do(0, 0, "memo.Get", func(int) {
		for i := 0; i < memoGets; i++ {
			_, hit = mc.Get(key)
		}
	})
	if !hit {
		l.check(fmt.Errorf("memo.Get missed a key just put"))
	}
	l.set("memo.get_us", float64(d)/float64(time.Microsecond)/memoGets, memoGets)

	// The layers a translate or migrate hit runs before its cache lookup.
	var fpMS, schMS, writeMS, decodeMS []float64
	for i, q := range rig.reqs {
		l.op = int64(i)
		switch q.kind {
		case kindTranslate:
			var req serve.TranslateRequest
			if err := json.Unmarshal(q.body, &req); err != nil {
				return err
			}
			pd, err := genPhys(pnrKey{req.Cells, int(req.Seed)})
			if err != nil {
				return err
			}
			var ferr error
			c := l.measure(0, "exchange.Fingerprint", func() { _, ferr = exchange.Fingerprint(pd.d.Nets) })
			l.check(ferr)
			fpMS = append(fpMS, ms(c.d))
		case kindMigrate:
			var req serve.MigrateRequest
			if err := json.Unmarshal(q.body, &req); err != nil {
				return err
			}
			req = req.WithDefaults()
			var w *workgen.SchematicWorkload
			c := l.measure(0, "workgen.Schematic", func() {
				w = workgen.Schematic(workgen.SchematicOptions{Instances: req.Gen, Pages: 1 + req.Gen/60, Seed: req.Seed})
			})
			schMS = append(schMS, ms(c.d))
			var werr error
			c = l.measure(0, "cd.Write", func() { werr = cd.Write(io.Discard, w.Design) })
			l.check(werr)
			writeMS = append(writeMS, ms(c.d))
			var derr error
			c = l.measure(0, "cd.ReadBytes.decode", func() {
				_, _, derr = cd.ReadBytes(q.design, cd.ReadOptions{Mode: diag.Strict, Source: "<migrate-cache>"})
			})
			l.check(derr)
			decodeMS = append(decodeMS, ms(c.d))
		}
	}
	l.set("exchange.fingerprint_ms", median(fpMS), len(fpMS))
	l.set("workgen.schematic_ms", median(schMS), len(schMS))
	l.set("cd.write_ms", median(writeMS), len(writeMS))
	l.set("cd.decode_ms", median(decodeMS), len(decodeMS))
	return nil
}
