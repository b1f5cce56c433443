package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/schematic/vl"
	"cadinterop/internal/serve"
	"cadinterop/internal/workgen"
)

// vet workload sizing. Each op vets one handoff bundle of four files; the
// bundle's sizes are drawn from continuous ranges.
const (
	vetBundles             = 24
	vetNetsLo, vetNetsHi   = 600, 3000 // exchange nets
	vetInstLo, vetInstHi   = 20, 200   // schematic instances (cd and vl alike)
	vetGatesLo, vetGatesHi = 50, 800   // hdl assigns
)

// vetBundle is one on-disk handoff bundle and its expected verdict block.
type vetBundle struct {
	files []string // sorted: design.edf, schem.cd, schem.vl, comb.v
	data  map[string][]byte
	info  workgen.ScaleInfo // manifest of the exchange design
	want  string            // the clean-verdict block serve.Check must print
}

func (b *vetBundle) file(ext string) (string, []byte) {
	for _, f := range b.files {
		if strings.HasSuffix(f, ext) {
			return f, b.data[f]
		}
	}
	return "", nil
}

// genVet writes the seed's bundles under dir.
func genVet(seed int64, dir string, k int) ([]*vetBundle, string, error) {
	r := rngFor(seed, "vet")
	nets := stratifiedInts(r, k, vetNetsLo, vetNetsHi)
	cdInst := stratifiedInts(r, k, vetInstLo, vetInstHi)
	vlInst := stratifiedInts(r, k, vetInstLo, vetInstHi)
	gates := stratifiedInts(r, k, vetGatesLo, vetGatesHi)
	var dg digest
	out := make([]*vetBundle, k)
	for i := range out {
		bdir := filepath.Join(dir, fmt.Sprintf("b%03d", i))
		if err := os.MkdirAll(bdir, 0o755); err != nil {
			return nil, "", err
		}
		b := &vetBundle{data: map[string][]byte{}}
		var edf bytes.Buffer
		info, err := workgen.ScaleExchange(&edf, workgen.ScaleOptions{Nets: nets[i], Seed: r.Int63()})
		if err != nil {
			return nil, "", err
		}
		b.info = info
		var cdText, vlText bytes.Buffer
		cw := workgen.Schematic(workgen.SchematicOptions{Instances: cdInst[i], Pages: 1 + cdInst[i]/60, Seed: r.Int63()})
		if err := cd.Write(&cdText, cw.Design); err != nil {
			return nil, "", err
		}
		vw := workgen.Schematic(workgen.SchematicOptions{Instances: vlInst[i], Pages: 1 + vlInst[i]/60, Seed: r.Int63()})
		if err := vl.Write(&vlText, vw.Design); err != nil {
			return nil, "", err
		}
		hdlText := workgen.CombModule(fmt.Sprintf("comb%03d", i), workgen.HDLOptions{Gates: gates[i], Inputs: 6, Seed: r.Int63()})
		for name, data := range map[string][]byte{
			"design.edf": edf.Bytes(), "schem.cd": cdText.Bytes(),
			"schem.vl": vlText.Bytes(), "comb.v": []byte(hdlText),
		} {
			path := filepath.Join(bdir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return nil, "", err
			}
			b.files = append(b.files, path)
			b.data[path] = data
		}
		sort.Strings(b.files)
		var want strings.Builder
		for _, f := range b.files {
			fmt.Fprintf(&want, "%s: ok (strict mode, 0 error(s), 0 warning(s))\n", f)
			dg.add([]byte(filepath.Base(f)), b.data[f])
		}
		b.want = want.String()
		out[i] = b
	}
	return out, fmt.Sprintf("%x", dg.h), nil
}

// vetCheck is one vet op: serve.Check with the interop -check defaults
// (strict, Jobs 0, no stream, no cache) over one bundle.
func vetCheck(b *vetBundle, rec *Recorder, parent int, op int64) error {
	var buf bytes.Buffer
	var err error
	rec.Do(parent, op, "serve.Check", func(int) {
		err = serve.Check(context.Background(), &buf, serve.CheckRequest{Files: b.files}, nil)
	})
	if err != nil {
		return fmt.Errorf("vet %s: %w", filepath.Dir(b.files[0]), err)
	}
	if buf.String() != b.want {
		return fmt.Errorf("vet %s: verdict block differs from the clean block", filepath.Dir(b.files[0]))
	}
	return nil
}

// setupVet generates the bundles, deals about n ops over them in blocks
// that vet every bundle once, and runs the warm pass (the first warmOps
// ops).
func setupVet(seed int64, n int, work string) (*plan, error) {
	dir, err := os.MkdirTemp(work, "vet-")
	if err != nil {
		return nil, err
	}
	bundles, dg, err := genVet(seed, dir, vetBundles)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	order := blocks(rngFor(seed, "vet-order"), blockCount(n, vetBundles), vetBundles)
	ops := make([]opFunc, len(order))
	for j, bi := range order {
		b := bundles[bi]
		ops[j] = func(rec *Recorder, parent int, op int64) error { return vetCheck(b, rec, parent, op) }
	}
	p := &plan{name: "vet", clients: [][]opFunc{ops}, block: vetBundles, digest: dg, close: func() { os.RemoveAll(dir) }}
	if err := warm(p); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}
