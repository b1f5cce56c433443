package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Seeds named for later claims: defaultSeed is the one a change is tuned
// on, heldoutSeed is kept back so a claim can be re-checked on inputs
// nobody looked at while writing the change.
const (
	defaultSeed = 1
	heldoutSeed = 104729
)

// rngFor derives an independent deterministic stream for one purpose
// from the run seed, so adding a draw for one workload never shifts
// another's inputs.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// stratified draws n sizes from [lo, hi): value i falls in its own
// 1/n-wide stratum at a seeded offset, and strata are dealt out in a
// seeded order. Every op costs a different amount — the cost distribution
// is continuous, so no percentile lands on a gap between cost classes —
// while the set's mean barely moves from seed to seed.
func stratified(r *rand.Rand, n int, lo, hi float64) []float64 {
	perm := r.Perm(n)
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(perm[i])+r.Float64())/float64(n)
	}
	return out
}

// stratifiedInts is stratified rounded down to whole numbers.
func stratifiedInts(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i, v := range stratified(r, n, float64(lo), float64(hi)) {
		out[i] = int(v)
	}
	return out
}

// blocks returns nBlocks seeded permutations of 0..k-1, concatenated:
// every block of k op slots uses each of k inputs once, so every block
// does the same work and a run's total work does not depend on the seed.
func blocks(r *rand.Rand, nBlocks, k int) []int {
	idx := make([]int, 0, nBlocks*k)
	for b := 0; b < nBlocks; b++ {
		idx = append(idx, r.Perm(k)...)
	}
	return idx
}

// blockCount is how many blocks of size k cover n ops (at least minBlocks).
func blockCount(n, k int) int {
	return max((n+k-1)/k, minBlocks)
}

// minBlocks keeps the per-block medians meaningful on short runs.
const minBlocks = 3

// digest accumulates an input-set fingerprint.
type digest struct{ h [32]byte }

func (d *digest) add(parts ...[]byte) {
	s := sha256.New()
	s.Write(d.h[:])
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		s.Write(n[:])
		s.Write(p)
	}
	copy(d.h[:], s.Sum(nil))
}
