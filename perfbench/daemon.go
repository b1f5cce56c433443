package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"

	"cadinterop/internal/serve"
)

// daemon workload sizing: a fixed set of bodies per request type, sizes
// drawn from continuous ranges.
const (
	daemonBodies             = 18 // per request type
	daemonGenLo, daemonGenHi = 10, 300
	daemonBlkLo, daemonBlkHi = 2, 11
	daemonFaultRate          = "0.2"
	daemonRetries            = 3
)

// Request types, dealt round-robin in equal thirds.
const (
	kindTranslate = iota
	kindMigrate
	kindFlow
	kinds
)

var kindPath = [kinds]string{"/v1/translate", "/v1/migrate", "/v1/flow"}

// dreq is one request body and the response a direct serve.* call gave
// for it at set-up.
type dreq struct {
	kind int
	body []byte
	want serve.Response
	// design is the migrated cd text a migrate request renders (used by
	// the traced run's decode layer).
	design []byte
}

// daemonBodiesFor builds the seed's request bodies.
func daemonBodiesFor(seed int64) ([]*dreq, string) {
	r := rngFor(seed, "daemon")
	var out []*dreq
	cells := stratifiedInts(r, daemonBodies, pnrCellsLo, pnrCellsHi+1)
	for _, c := range cells {
		b, _ := json.Marshal(serve.TranslateRequest{Cells: c, Seed: int64(1 + r.Intn(pnrSeeds))})
		out = append(out, &dreq{kind: kindTranslate, body: b})
	}
	for _, g := range stratifiedInts(r, daemonBodies, daemonGenLo, daemonGenHi) {
		b, _ := json.Marshal(serve.MigrateRequest{Gen: g, Seed: 1 + r.Int63n(1<<30)})
		out = append(out, &dreq{kind: kindMigrate, body: b})
	}
	for _, n := range stratifiedInts(r, daemonBodies, daemonBlkLo, daemonBlkHi) {
		b, _ := json.Marshal(serve.FlowRequest{Blocks: n,
			Faults: fmt.Sprintf("%d:%s", 1+r.Intn(1000), daemonFaultRate), Retries: daemonRetries})
		out = append(out, &dreq{kind: kindFlow, body: b})
	}
	var dg digest
	for _, q := range out {
		dg.add([]byte(kindPath[q.kind]), q.body)
	}
	return out, fmt.Sprintf("%x", dg.h)
}

// direct runs q through the serve entry point the handler calls, on the
// server's cache, and returns the response the endpoint must reproduce.
func direct(s *serve.Server, q *dreq) (serve.Response, []byte, error) {
	ctx := context.Background()
	var out, design bytes.Buffer
	var err error
	switch q.kind {
	case kindTranslate:
		var req serve.TranslateRequest
		if err := json.Unmarshal(q.body, &req); err != nil {
			return serve.Response{}, nil, err
		}
		err = serve.Translate(ctx, &out, req.WithDefaults(), nil, s.Cache())
	case kindMigrate:
		var req serve.MigrateRequest
		if err := json.Unmarshal(q.body, &req); err != nil {
			return serve.Response{}, nil, err
		}
		// The handler renders report and design into one buffer; render
		// them apart here and join them, keeping the design on its own.
		var report bytes.Buffer
		err = serve.Migrate(ctx, &report, &design, req.WithDefaults(), s.Cache())
		out.Write(report.Bytes())
		out.Write(design.Bytes())
	case kindFlow:
		var req serve.FlowRequest
		if err := json.Unmarshal(q.body, &req); err != nil {
			return serve.Response{}, nil, err
		}
		_, err = serve.Flow(ctx, &out, req.WithDefaults(), true)
	}
	resp := serve.Response{Output: out.String()}
	if err != nil {
		resp.Error, resp.Exit = err.Error(), 1
	}
	return resp, design.Bytes(), nil
}

// daemonRig is a running in-process daemon: the interopd -cache handler
// behind a loopback httptest server, plus a client pool sized to the
// closed-loop client count.
type daemonRig struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	reqs   []*dreq
}

// newDaemonRig starts the server and captures every body's expected
// response with a direct call; those calls also fill the memo cache, so
// translate and migrate bodies are hits from then on.
func newDaemonRig(seed int64, clients int) (*daemonRig, string, error) {
	// Config as interopd -cache builds it: in-memory memo cache, default
	// worker budget and queue bound, request log off.
	srv, err := serve.New(serve.Config{CacheMem: true, Queue: -1})
	if err != nil {
		return nil, "", err
	}
	reqs, dg := daemonBodiesFor(seed)
	for _, q := range reqs {
		if q.want, q.design, err = direct(srv, q); err != nil {
			srv.Close()
			return nil, "", err
		}
	}
	rig := &daemonRig{srv: srv, ts: httptest.NewServer(srv.Handler()), reqs: reqs,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}}
	return rig, dg, nil
}

func (d *daemonRig) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
}

// post sends q and checks the response: HTTP 200 (a 503 shed or 504
// deadline is a failure) with output and exit identical to the direct
// call captured at set-up.
func (d *daemonRig) post(q *dreq) error {
	resp, err := d.client.Post(d.ts.URL+kindPath[q.kind], "application/json", bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", kindPath[q.kind], resp.StatusCode, bytes.TrimSpace(data))
	}
	var got serve.Response
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("%s: %w", kindPath[q.kind], err)
	}
	if got.Output != q.want.Output || got.Exit != q.want.Exit {
		return fmt.Errorf("%s %s: response differs from the direct call", kindPath[q.kind], q.body)
	}
	return nil
}

// daemonClients is the closed-loop client count: one per CPU.
func daemonClients() int { return runtime.NumCPU() }

// setupDaemon starts the rig, runs the warm pass (every body once over
// HTTP) and deals each client about n/clients ops in blocks, request
// types round-robin.
func setupDaemon(seed int64, n int) (*plan, *daemonRig, error) {
	clients := daemonClients()
	rig, dg, err := newDaemonRig(seed, clients)
	if err != nil {
		return nil, nil, err
	}
	for _, q := range rig.reqs {
		if err := rig.post(q); err != nil {
			rig.close()
			return nil, nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	byKind := [kinds][]*dreq{}
	for _, q := range rig.reqs {
		byKind[q.kind] = append(byKind[q.kind], q)
	}
	// A block is kinds×daemonBodies ops: types round-robin, each body of
	// each type once, in a seeded order per block.
	block := kinds * daemonBodies
	nb := blockCount(n/clients, block)
	p := &plan{name: "daemon", block: block, digest: dg, close: rig.close}
	for c := 0; c < clients; c++ {
		r := rngFor(seed, fmt.Sprintf("daemon-client-%d", c))
		var order [kinds][]int
		for k := range order {
			order[k] = blocks(r, nb, daemonBodies)
		}
		ops := make([]opFunc, nb*block)
		for j := range ops {
			k := (j + c) % kinds
			q := byKind[k][order[k][j/kinds]]
			ops[j] = func(rec *Recorder, parent int, op int64) error {
				var err error
				rec.Do(parent, op, "http"+kindPath[q.kind], func(int) { err = rig.post(q) })
				return err
			}
		}
		p.clients = append(p.clients, ops)
	}
	return p, rig, nil
}
