package route

// Pooled scratch for the search phases. Every buffer is a flat slice
// indexed by (layer*H + y)*W + x and validity is tracked with epoch stamps:
// "clearing" a buffer is a single counter increment, not an O(cells) wipe.
// Buffers come from a per-Grid sync.Pool, so steady-state routing — one
// bfs per pin — reuses the same storage instead of re-allocating maps per
// search (see DESIGN.md §5c).

// searchScratch holds one bfs invocation's visited/cost/frontier state.
type searchScratch struct {
	dist  []int32  // cost to reach a node; valid iff stamp[i] == epoch
	prev  []int32  // predecessor flat index (-1 = search root)
	stamp []uint32 // epoch stamp guarding dist/prev
	epoch uint32
	// buckets is the small-integer-cost frontier queue, indexed by cost.
	// Inner slices are reused across searches.
	buckets [][]int32
}

func newSearchScratch(n int) *searchScratch {
	return &searchScratch{
		dist:  make([]int32, n),
		prev:  make([]int32, n),
		stamp: make([]uint32, n),
	}
}

// reset invalidates all per-search state in O(buckets) time.
func (sc *searchScratch) reset() {
	sc.epoch++
	if sc.epoch == 0 { // stamp wraparound: wipe once every 2^32 searches
		clear(sc.stamp)
		sc.epoch = 1
	}
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
}

// push appends a node to the cost-d frontier, growing the bucket index as
// needed.
func (sc *searchScratch) push(d int, i int32) {
	for d >= len(sc.buckets) {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[d] = append(sc.buckets[d], i)
}

// visited reports whether a node has a valid distance this search.
func (sc *searchScratch) visited(i int32) bool { return sc.stamp[i] == sc.epoch }

// setDist records a node's distance and predecessor.
func (sc *searchScratch) setDist(i, d, from int32) {
	sc.dist[i] = d
	sc.prev[i] = from
	sc.stamp[i] = sc.epoch
}

// getScratch leases a search scratch sized for this grid.
func (g *Grid) getScratch() *searchScratch {
	g.mSearches.Inc()
	if v := g.scratch.Get(); v != nil {
		g.mScratchReuse.Inc()
		return v.(*searchScratch)
	}
	return newSearchScratch(2 * g.W * g.H)
}

func (g *Grid) putScratch(sc *searchScratch) { g.scratch.Put(sc) }
