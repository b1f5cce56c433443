package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cadinterop/internal/serve"
)

// pnr workload sizing. Designs come from a fixed catalogue — every cell
// count in [pnrCellsLo, pnrCellsHi] times design seeds 1..pnrSeeds — so the
// expected output of every op can be stored as a digest. A block is
// pnrPool ops.
const (
	pnrCellsLo, pnrCellsHi = 12, 36
	pnrSeeds               = 16
	pnrPool                = 24
)

// pnrDigestFile holds, for every catalogue design, the sha256 of
// serve.Translate's rendered table recorded at Jobs 1 (the fully serial
// reference) and the reference's time, which only ranks designs by cost.
// Regenerate it with -record-pnr-digests.
//
//go:embed pnr_digests.txt
var pnrDigestFile string

type pnrKey struct{ cells, seed int }

type pnrEntry struct {
	key    pnrKey
	sha    string
	costMS float64
}

func parseDigests(text string) (map[pnrKey]pnrEntry, error) {
	out := map[pnrKey]pnrEntry{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("pnr_digests.txt:%d: want \"cells seed sha256 cost_ms\"", ln)
		}
		c, err1 := strconv.Atoi(f[0])
		s, err2 := strconv.Atoi(f[1])
		cost, err3 := strconv.ParseFloat(f[3], 64)
		if firstErr(err1, err2, err3) != nil {
			return nil, fmt.Errorf("pnr_digests.txt:%d: bad number", ln)
		}
		k := pnrKey{c, s}
		out[k] = pnrEntry{key: k, sha: f[2], costMS: cost}
	}
	return out, sc.Err()
}

// translateTable renders one cold backplane translation with the bplane
// defaults except for the worker count.
func translateTable(k pnrKey, jobs int) ([]byte, error) {
	var buf bytes.Buffer
	req := serve.TranslateRequest{Cells: k.cells, Seed: int64(k.seed), Jobs: jobs}.WithDefaults()
	err := serve.Translate(context.Background(), &buf, req, nil, nil)
	return buf.Bytes(), err
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recordDigests writes the digest catalogue to path.
func recordDigests(path string) error {
	var b strings.Builder
	fmt.Fprintln(&b, "# Per catalogue design: sha256 of serve.Translate's table (bplane defaults, Jobs 1)")
	fmt.Fprintln(&b, "# and the faster of two Jobs 1 runs in ms, used only to rank designs by cost.")
	fmt.Fprintln(&b, "# Regenerate with: bash perfbench/run.sh -record-pnr-digests perfbench/pnr_digests.txt")
	fmt.Fprintln(&b, "# cells seed sha256 cost_ms")
	for c := pnrCellsLo; c <= pnrCellsHi; c++ {
		for s := 1; s <= pnrSeeds; s++ {
			k := pnrKey{c, s}
			var out []byte
			cost := math.Inf(1)
			for rep := 0; rep < 2; rep++ {
				t0 := time.Now()
				o, err := translateTable(k, 1)
				if err != nil {
					return fmt.Errorf("cells %d seed %d: %w", c, s, err)
				}
				cost = math.Min(cost, ms(time.Since(t0)))
				if out != nil && !bytes.Equal(o, out) {
					return fmt.Errorf("cells %d seed %d: Jobs 1 output not repeatable", c, s)
				}
				out = o
			}
			fmt.Fprintf(&b, "%d %d %s %.1f\n", c, s, sha(out), cost)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// pnrDesigns picks nb blocks of pnrPool designs each. The catalogue is
// ranked by reference cost and cut into pnrPool×nb fine strata, one seeded
// pick from each; block b takes, from each run of nb consecutive strata,
// one pick in a seeded order. So every block spans the whole cost range
// (equal work per block), each design is distinct where the catalogue
// allows, and the run's latency distribution is continuous and barely
// moves from seed to seed.
func pnrDesigns(seed int64, catalogue map[pnrKey]pnrEntry, nb int) ([][]pnrEntry, string) {
	ranked := make([]pnrEntry, 0, len(catalogue))
	for _, e := range catalogue {
		ranked = append(ranked, e)
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.costMS != b.costMS {
			return a.costMS < b.costMS
		}
		if a.key.cells != b.key.cells {
			return a.key.cells < b.key.cells
		}
		return a.key.seed < b.key.seed
	})
	r := rngFor(seed, "pnr")
	fine := pnrPool * nb
	picks := make([]pnrEntry, fine)
	for i := range picks {
		lo := i * len(ranked) / fine
		hi := max((i+1)*len(ranked)/fine, lo+1)
		picks[i] = ranked[lo+r.Intn(hi-lo)]
	}
	out := make([][]pnrEntry, nb)
	for s := 0; s < pnrPool; s++ {
		for b, f := range r.Perm(nb) {
			out[b] = append(out[b], picks[s*nb+f])
		}
	}
	var dg digest
	for _, blk := range out {
		r.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		for _, e := range blk {
			dg.add([]byte(fmt.Sprintf("%d/%d", e.key.cells, e.key.seed)))
		}
	}
	return out, fmt.Sprintf("%x", dg.h)
}

// setupPnr deals about n ops in blocks of pnrPool designs, one from each
// cost stratum, and runs the warm pass. Each op is a cold serve.Translate with the
// bplane defaults (3 dialects, Jobs 0, no cache, no round trip) whose table
// must hash to the stored Jobs 1 digest.
func setupPnr(seed int64, n int) (*plan, error) {
	catalogue, err := parseDigests(pnrDigestFile)
	if err != nil {
		return nil, err
	}
	blks, dg := pnrDesigns(seed, catalogue, blockCount(n, pnrPool))
	var ops []opFunc
	for _, blk := range blks {
		for _, e := range blk {
			ops = append(ops, func(rec *Recorder, parent int, op int64) error {
				var out []byte
				var err error
				rec.Do(parent, op, "serve.Translate", func(int) { out, err = translateTable(e.key, 0) })
				if err != nil {
					return fmt.Errorf("pnr cells %d seed %d: %w", e.key.cells, e.key.seed, err)
				}
				if got := sha(out); got != e.sha {
					return fmt.Errorf("pnr cells %d seed %d: table sha256 %s, want %s", e.key.cells, e.key.seed, got, e.sha)
				}
				return nil
			})
		}
	}
	p := &plan{name: "pnr", clients: [][]opFunc{ops}, block: pnrPool, digest: dg, close: func() {}}
	if err := warm(p); err != nil {
		return nil, err
	}
	return p, nil
}
