package metric

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"compactrouting/internal/graph"
	"compactrouting/internal/par"
)

// LazyOracle is the on-demand distance backend: instead of the dense
// APSP matrix it computes truncated single-source Dijkstra rows per
// query, exactly the prefix the full run from that source would settle,
// and caches them in a bounded generation-keyed LRU. Rows run on the
// same sssp kernel as NewAPSP, which settles nodes in (distance, id)
// order, so a truncated row is byte-identical to the corresponding
// prefix of the dense backend's distance and order rows, and is
// indexed directly with no re-sort — every Distancer query therefore
// returns bit-identical results on both backends (equivalence_test.go,
// kernel_reference_test.go), while memory stays proportional to the
// cached rows instead of n². Stats reports the work done.
//
// Queries are deterministic regardless of cache state: an evicted row
// is re-derived by re-running the same truncated Dijkstra, so answers
// are a pure function of (graph, query), never of eviction history or
// scheduling (lazy_property_test.go pins this).
//
// All methods are safe for concurrent use; a single mutex serializes
// cache access and cold-miss construction. Sweep-shaped construction
// (every center reads its own ball once) goes through SweepBalls,
// which builds rows on the worker pool and never touches the cache.
// No builder calls PrefetchBalls any more: it warms the cache only for
// SweepBalls' fallback over decorator types (sweepByQueries) and for
// _bench's counting decorator, which forwards it.
//
// The serving path builds no rows. It asks its optimal distance through
// PointDist, which a cached row answers when it holds the pair, and
// otherwise a goal-directed A* search from u with landmark lower bounds
// (point.go): it expands the nodes between u and v instead of the whole
// ball of radius d(u, v), returns Dist's bits, caches nothing, and runs
// outside the mutex on pooled scratch. Its only state is the landmark
// index, 16 full rows built by the first point query, so construction
// stays O(1) and the build's work counters do not change.
type LazyOracle struct {
	g       *graph.Graph
	n       int
	minEdge float64

	mu      sync.Mutex
	gen     uint64
	rows    map[rowKey]*lazyRow
	head    *lazyRow // most recently used
	tail    *lazyRow // least recently used
	entries int      // total settled entries cached across rows
	maxEnt  int
	bld     *sssp
	stats   LazyStats

	// The point search (point.go) runs outside mu: its landmark index,
	// built by the first point query under lmMu, its scratch free list
	// and its counters.
	lm            atomic.Pointer[landmarks]
	lmMu          sync.Mutex
	spareMu       sync.Mutex
	spare         []*pointScratch // guarded by spareMu
	pointSearches atomic.Uint64   // guarded by atomic
	pointExpanded atomic.Uint64   // guarded by atomic
}

// LazyStats counts the lazy oracle's work since construction. The
// counters are a pure function of the order queries reach the oracle.
// SweepBalls counts its rows serially in source order, and
// PrefetchBalls (reached only through SweepBalls' fallback for
// decorator types and _bench's counting decorator, never from a
// builder) installs serially, so work that goes through them reports
// the same numbers at any GOMAXPROCS. Point queries issued from
// parallel workers (the search-tree builds, labeled.ScaleFree's cells)
// race for the shared LRU, so two runs of such a build report the same
// numbers only at GOMAXPROCS=1. The answers never vary; only the
// counts of hits, rows built, entries settled and evictions do. The
// point-search counters are sums of per-search work, and each search
// is a pure function of (graph, u, v), so a fixed set of point queries
// that no cached row answers reports the same numbers in any order and
// at any GOMAXPROCS (TestPointSearchWork).
type LazyStats struct {
	// Hits counts queries answered from a cached row without running
	// the kernel.
	Hits uint64
	// RowsBuilt counts truncated Dijkstra runs: cold misses, row
	// extensions, prefetched rows, and one per source a SweepBalls
	// visits (sweep rows are built, read once and dropped, so they add
	// no hits, cached entries or evictions).
	RowsBuilt uint64
	// Settled sums the entries those runs settled.
	Settled uint64
	// Evictions counts rows the entry budget pushed out of the cache.
	Evictions uint64
	// PointSearches counts point queries (PointDist) that no cached row
	// answered and that ran the landmark A* search instead; a cached
	// row answers as a hit.
	PointSearches uint64
	// PointExpanded sums the nodes those searches popped.
	PointExpanded uint64
	// LandmarkRows counts the kernel runs that built the landmark
	// index: 0 until the first point search, then one per landmark
	// plus node 0's seed row (17 on graphs of 16 nodes or more).
	LandmarkRows uint64
}

// rowKey identifies a cached row: the oracle generation it was built
// under plus the source node.
type rowKey struct {
	gen uint64
	u   int32
}

// lazyRow is one source's truncated Dijkstra output.
type lazyRow struct {
	key rowKey
	// Order arrays, in the kernel's (distance, node id) settle order —
	// the dense backend's order-row tie-break: nodes[i] is the i-th
	// nearest node, at distance dist[i] (nondecreasing) with parent[i]
	// its next hop toward the source (-1 at the source).
	nodes  []int32
	dist   []float64
	parent []int32
	idx    map[int32]int32 // node -> position
	// safeDist is the proven completeness radius: every node at
	// distance <= safeDist is settled, so entries up to it are an
	// exact prefix of the full order row. complete means the whole
	// graph is settled.
	safeDist float64
	complete bool

	prev, next *lazyRow // LRU list
}

// LazyOpts parameterizes NewLazyOracleOpts.
type LazyOpts struct {
	// Generation keys cached rows; AdvanceGeneration bumps it at
	// runtime (the serving plane's reload path).
	Generation uint64
	// MaxEntries bounds the total settled entries cached across rows
	// (about 35 bytes each: 16 in the row arrays, the rest in the
	// row's node -> position map). <= 0 selects the default: enough for a
	// handful of full rows plus the working set of a ball sweep.
	MaxEntries int
}

// defaultLazyEntries sizes the row cache when LazyOpts.MaxEntries is
// unset: 8 full rows' worth, but at least 1<<16 entries so small
// graphs cache everything.
func defaultLazyEntries(n int) int {
	e := 8 * n
	if e < 1<<16 {
		e = 1 << 16
	}
	return e
}

// NewLazyOracle returns the on-demand backend for g with default
// options. Construction is O(1): no Dijkstra runs until a query needs
// one.
func NewLazyOracle(g *graph.Graph) *LazyOracle {
	return NewLazyOracleOpts(g, LazyOpts{})
}

// NewLazyOracleOpts is NewLazyOracle with explicit options.
func NewLazyOracleOpts(g *graph.Graph, opts LazyOpts) *LazyOracle {
	maxEnt := opts.MaxEntries
	if maxEnt <= 0 {
		maxEnt = defaultLazyEntries(g.N())
	}
	// A single full row must always fit, or expansion could thrash.
	if maxEnt < g.N() {
		maxEnt = g.N()
	}
	return &LazyOracle{
		g:       g,
		n:       g.N(),
		minEdge: g.MinEdgeWeight(),
		gen:     opts.Generation,
		rows:    make(map[rowKey]*lazyRow),
		maxEnt:  maxEnt,
		bld:     newSSSP(g.N()),
	}
}

// Generation returns the current cache generation.
func (o *LazyOracle) Generation() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.gen
}

// AdvanceGeneration invalidates every cached row by moving to the next
// generation (rows of older generations are dropped immediately).
func (o *LazyOracle) AdvanceGeneration() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gen++
	o.rows = make(map[rowKey]*lazyRow)
	o.head, o.tail, o.entries = nil, nil, 0
}

// CachedEntries reports the settled entries currently cached (test and
// metrics hook).
func (o *LazyOracle) CachedEntries() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.entries
}

// Stats returns the work counters accumulated so far.
func (o *LazyOracle) Stats() LazyStats {
	o.mu.Lock()
	st := o.stats
	o.mu.Unlock()
	st.PointSearches = o.pointSearches.Load()
	st.PointExpanded = o.pointExpanded.Load()
	if ix := o.lm.Load(); ix != nil {
		st.LandmarkRows = ix.rows
	}
	return st
}

// N returns the number of nodes.
func (o *LazyOracle) N() int { return o.n }

// MinPairDistance returns the smallest nonzero pairwise distance: on a
// connected positively-weighted graph, exactly the minimum edge weight
// (a multi-edge path sums at least two edges each >= it), so the bytes
// match the dense backend's matrix scan.
func (o *LazyOracle) MinPairDistance() float64 {
	if o.n < 2 {
		return math.Inf(1)
	}
	return o.minEdge
}

// distFast is the lazy backend's cache-hit query: a row lookup plus an
// LRU touch, no allocation. Cold misses fall through to the builder.
//
//determinlint:hotpath
func (o *LazyOracle) distFast(u, v int) (float64, bool) {
	o.mu.Lock()
	row := o.rows[rowKey{o.gen, int32(u)}]
	if row != nil {
		if p, ok := row.idx[int32(v)]; ok {
			d := row.dist[p]
			o.stats.Hits++
			o.touch(row)
			o.mu.Unlock()
			return d, true
		}
	}
	o.mu.Unlock()
	return 0, false
}

// Dist returns d(u, v) with source-u summation order.
func (o *LazyOracle) Dist(u, v int) float64 {
	if d, ok := o.distFast(u, v); ok {
		return d
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	row := o.ensureNode(u, v)
	return row.dist[row.idx[int32(v)]]
}

// pointDist returns Dist(u, v), bit for bit, without building a row:
// a cached row answers if it holds v, and otherwise a landmark A*
// search from u (point.go) expands the few nodes between u and v
// instead of the whole ball of radius d(u, v). It caches nothing, runs
// outside the oracle mutex on pooled scratch, and allocates only on
// its first call (the landmark index) and when more searches run at
// once than ever before (their scratch).
//
//determinlint:hotpath
func (o *LazyOracle) pointDist(u, v int) float64 {
	if d, ok := o.distFast(u, v); ok {
		return d
	}
	ix := o.lm.Load()
	if ix == nil {
		//determinlint:allow hotpath the landmark index is built once per oracle, by its first point query
		ix = o.landmarkIndex()
	}
	sc := o.getPointScratch()
	d, pops := ix.search(o.g, sc, u, v)
	o.putPointScratch(sc)
	o.pointSearches.Add(1)
	o.pointExpanded.Add(pops)
	return d
}

// landmarkIndex returns the landmark index, building it if no query has.
func (o *LazyOracle) landmarkIndex() *landmarks {
	o.lmMu.Lock()
	defer o.lmMu.Unlock()
	ix := o.lm.Load()
	if ix == nil {
		ix = newLandmarks(o.g)
		o.lm.Store(ix)
	}
	return ix
}

// getPointScratch takes an idle search scratch off the free list, or
// allocates one when every scratch is in use.
func (o *LazyOracle) getPointScratch() *pointScratch {
	o.spareMu.Lock()
	if k := len(o.spare); k > 0 {
		sc := o.spare[k-1]
		o.spare = o.spare[:k-1]
		o.spareMu.Unlock()
		return sc
	}
	o.spareMu.Unlock()
	//determinlint:allow hotpath a scratch is allocated only when more searches run at once than ever before
	return newPointScratch(o.n)
}

// putPointScratch returns a clean scratch to the free list, which
// keeps one per search that has run at once.
func (o *LazyOracle) putPointScratch(sc *pointScratch) {
	o.spareMu.Lock()
	o.spare = append(o.spare, sc)
	o.spareMu.Unlock()
}

// NextHop returns the neighbor of u on the canonical shortest path
// from u to v — u's parent in the tree rooted at v — or -1 if u == v.
// The row consulted is v's (target-rooted trees are column reads of
// the source-rooted rows).
func (o *LazyOracle) NextHop(u, v int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	row := o.ensureNode(v, u)
	return int(row.parent[row.idx[int32(u)]])
}

// Kth returns the k-th nearest node to u (k=0 is u itself).
func (o *LazyOracle) Kth(u, k int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return int(o.ensureCount(u, k+1).nodes[k])
}

// RadiusOfSize returns r_u(size), the distance from u to its size-th
// nearest node.
func (o *LazyOracle) RadiusOfSize(u, size int) float64 {
	if size < 1 {
		return 0
	}
	if size > o.n {
		size = o.n
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ensureCount(u, size).dist[size-1]
}

// BallOfSize returns the first size entries of u's distance order.
func (o *LazyOracle) BallOfSize(u, size int) []int {
	return o.AppendBallOfSize(nil, u, size)
}

// AppendBallOfSize is BallOfSize appending into dst.
func (o *LazyOracle) AppendBallOfSize(dst []int, u, size int) []int {
	if size > o.n {
		size = o.n
	}
	if size < 1 {
		return dst
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, v := range o.ensureCount(u, size).nodes[:size] {
		dst = append(dst, int(v))
	}
	return dst
}

// Ball returns all nodes within distance r of u (inclusive), in
// increasing (distance, id) order.
func (o *LazyOracle) Ball(u int, r float64) []int {
	return o.AppendBall(nil, u, r)
}

// AppendBall is Ball appending into dst.
func (o *LazyOracle) AppendBall(dst []int, u int, r float64) []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	row := o.ensureRadius(u, r)
	for _, v := range row.nodes[:row.searchBeyond(r)] {
		dst = append(dst, int(v))
	}
	return dst
}

// BallSize returns |B_u(r)|.
func (o *LazyOracle) BallSize(u int, r float64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ensureRadius(u, r).searchBeyond(r)
}

// Nearest returns the member of set nearest to u, comparing the
// candidate-rooted distances Dist(v, u) with ties by least id.
func (o *LazyOracle) Nearest(u int, set []int) (int, float64) {
	best, bd := -1, math.Inf(1)
	for _, v := range set {
		d := o.Dist(v, u)
		//determinlint:allow floateq deliberate exact tie-break: nearest-by-(distance, id) must be bit-reproducible
		if d < bd || (d == bd && v < best) {
			best, bd = v, d
		}
	}
	return best, bd
}

// Eccentricity returns max_v d(u, v). It settles u's full row (one
// complete Dijkstra) — the lazy backend's substitute for the dense
// Diameter scan wherever a covering radius is needed.
func (o *LazyOracle) Eccentricity(u int) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	row := o.ensureRadius(u, math.Inf(1))
	return row.dist[len(row.dist)-1]
}

// PrefetchBalls warms the rows of the given sources out to radius r.
// Cold rows are built concurrently over internal/par — each worker
// owns a stride of the source list and its own builder — and installed
// into the cache serially in source order, so the cache transcript and
// every later answer are identical at any GOMAXPROCS.
func (o *LazyOracle) PrefetchBalls(sources []int, r float64) {
	o.mu.Lock()
	need := make([]int, 0, len(sources))
	for _, u := range sources {
		if row := o.rows[rowKey{o.gen, int32(u)}]; row == nil || !(row.complete || row.safeDist >= r) {
			need = append(need, u)
		}
	}
	gen := o.gen
	o.mu.Unlock()
	if len(need) == 0 {
		return
	}
	built := make([]*lazyRow, len(need))
	workers := par.SuggestedWorkers(len(need))
	// Worker w owns the stride {w, w+workers, ...} of `need` — each
	// built[i] is written by exactly one worker, and each row is a pure
	// function of (graph, source, r), so the result is schedule-free.
	par.For(workers, func(w int) {
		s := newSSSP(o.n)
		for i := w; i < len(built); i += workers {
			//determinlint:allow parbody worker w owns the stride {w, w+workers, ...}: each built[i] has exactly one writer and rows are pure functions of (graph, source, r)
			built[i] = buildRow(s, o.g, need[i], gen, buildStop{radius: r, node: -1})
		}
	})
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, row := range built {
		o.countBuilt(row)
	}
	if o.gen != gen {
		return // invalidated mid-build; drop the stale rows
	}
	for _, row := range built {
		old := o.rows[row.key]
		// Keep whichever row knows more; queries cannot tell the
		// difference, this only avoids discarding a wider row.
		if old != nil && (old.complete || old.safeDist >= row.safeDist) {
			continue
		}
		o.install(row, old)
	}
}

// --- cache internals (all called with mu held) ---

// touch moves row to the MRU end of the list.
func (o *LazyOracle) touch(row *lazyRow) {
	if o.head == row {
		return
	}
	// unlink
	if row.prev != nil {
		row.prev.next = row.next
	}
	if row.next != nil {
		row.next.prev = row.prev
	}
	if o.tail == row {
		o.tail = row.prev
	}
	// push front
	row.prev = nil
	row.next = o.head
	if o.head != nil {
		o.head.prev = row
	}
	o.head = row
	if o.tail == nil {
		o.tail = row
	}
}

// install replaces old (possibly nil) with row and evicts LRU rows
// beyond the entry budget, never evicting row itself.
func (o *LazyOracle) install(row *lazyRow, old *lazyRow) {
	if old != nil {
		o.remove(old)
	}
	o.rows[row.key] = row
	o.entries += len(row.nodes)
	row.prev, row.next = nil, o.head
	if o.head != nil {
		o.head.prev = row
	}
	o.head = row
	if o.tail == nil {
		o.tail = row
	}
	for o.entries > o.maxEnt && o.tail != nil && o.tail != row {
		o.remove(o.tail)
		o.stats.Evictions++
	}
}

// remove unlinks a row from the cache and the LRU list.
func (o *LazyOracle) remove(row *lazyRow) {
	delete(o.rows, row.key)
	o.entries -= len(row.nodes)
	if row.prev != nil {
		row.prev.next = row.next
	} else {
		o.head = row.next
	}
	if row.next != nil {
		row.next.prev = row.prev
	} else {
		o.tail = row.prev
	}
	row.prev, row.next = nil, nil
}

// row returns u's cached row or nil.
func (o *LazyOracle) row(u int) *lazyRow {
	row := o.rows[rowKey{o.gen, int32(u)}]
	if row != nil {
		o.touch(row)
	}
	return row
}

// rebuild replaces u's row with one built under the given stop
// condition.
func (o *LazyOracle) rebuild(u int, old *lazyRow, stop buildStop) *lazyRow {
	row := buildRow(o.bld, o.g, u, o.gen, stop)
	o.countBuilt(row)
	o.install(row, old)
	return row
}

// countBuilt records one kernel run in the stats.
func (o *LazyOracle) countBuilt(row *lazyRow) {
	o.stats.RowsBuilt++
	o.stats.Settled += uint64(len(row.nodes))
}

// ensureRadius returns u's row, complete through radius r.
func (o *LazyOracle) ensureRadius(u int, r float64) *lazyRow {
	row := o.row(u)
	if row != nil && (row.complete || row.safeDist >= r) {
		o.stats.Hits++
		return row
	}
	want := r
	if row != nil && 2*row.safeDist > want {
		// Geometric growth: expanding a row re-runs its Dijkstra, so
		// at least double the known radius to amortize ladders of
		// slightly-growing queries.
		want = 2 * row.safeDist
	}
	return o.rebuild(u, row, buildStop{radius: want, node: -1})
}

// ensureCount returns u's row with its first k order entries exact
// (settled through distance ties at the k-th distance).
func (o *LazyOracle) ensureCount(u, k int) *lazyRow {
	if k > o.n {
		k = o.n
	}
	row := o.row(u)
	if row != nil && row.orderedPrefix(k) {
		o.stats.Hits++
		return row
	}
	want := k
	if row != nil && 2*len(row.nodes) > want {
		want = 2 * len(row.nodes)
	}
	if want > o.n {
		want = o.n
	}
	return o.rebuild(u, row, buildStop{radius: math.Inf(1), count: want, node: -1})
}

// ensureNode returns u's row with v settled.
func (o *LazyOracle) ensureNode(u, v int) *lazyRow {
	row := o.row(u)
	if row != nil {
		_, ok := row.idx[int32(v)]
		// Connected graph: a complete row holds every node.
		if ok || row.complete {
			o.stats.Hits++
			return row
		}
	}
	return o.rebuild(u, row, buildStop{radius: math.Inf(1), node: v})
}

// orderedPrefix reports whether the first k order entries are exact:
// k settled entries exist and the k-th lies within the proven
// completeness radius (so no unsettled node could sort before or tie
// into the prefix).
func (r *lazyRow) orderedPrefix(k int) bool {
	if k > len(r.nodes) {
		return false
	}
	return r.complete || r.dist[k-1] <= r.safeDist
}

// searchBeyond returns the number of order entries at distance <= rad
// (callers guarantee completeness through rad).
func (r *lazyRow) searchBeyond(rad float64) int {
	return sort.Search(len(r.dist), func(i int) bool { return r.dist[i] > rad })
}

// --- truncated Dijkstra ---

// buildStop tells the row builder when it may stop settling:
//   - radius: settle every node at distance <= radius
//   - count (0 = none): settle at least count nodes, then flush
//     distance ties so the (distance, id) order prefix is exact
//   - node (-1 = none): settle through this node
//
// The builder may settle more than asked (it stops after the first
// pop that proves the conditions); the extra entries are identical to
// what any wider run would produce, so answers never depend on which
// query shaped the row.
type buildStop struct {
	radius float64
	count  int
	node   int
}

// buildRow executes one truncated Dijkstra from src on clean kernel
// scratch s and leaves s clean. The kernel's run is deterministic, so
// the settled prefix is byte-identical to the full run's: distances and
// parents are final the moment a node settles, and nodes settle in
// (distance, id) order, so any two runs from the same source agree on
// every node both settled.
//
// Each buildStop field is an independent stop requirement; the run
// settles until all requested requirements hold (a stop with no
// requirement — infinite radius, no count, no node — settles the
// whole graph).
func buildRow(s *sssp, g *graph.Graph, src int, gen uint64, stop buildStop) *lazyRow {
	n := g.N()
	wantRadius := !math.IsInf(stop.radius, 1)
	early := wantRadius || stop.count > 0 || stop.node >= 0
	sawNode := stop.node < 0
	lastDist := 0.0
	s.start(src)
	for !s.empty() && len(s.order) < n {
		v, d := s.settle(g)
		lastDist = d
		if int(v) == stop.node {
			sawNode = true
		}
		if early &&
			(!wantRadius || d > stop.radius) &&
			(stop.count <= 0 || len(s.order) >= stop.count) &&
			sawNode &&
			s.nextDist() > lastDist {
			// The tie-flush gate (nextDist > lastDist) makes the
			// settled set closed under distance equality, so the
			// settle order is an exact prefix of the full order row
			// through safeDist inclusive.
			break
		}
	}
	if s.unsorted {
		s.sortOrder()
	}
	k := len(s.order)
	row := &lazyRow{
		key:    rowKey{gen, int32(src)},
		nodes:  make([]int32, k),
		dist:   make([]float64, k),
		parent: make([]int32, k),
		idx:    make(map[int32]int32, k),
		// All nodes at distance <= lastDist are settled (the loop only
		// breaks after flushing distance ties at lastDist).
		safeDist: lastDist,
		complete: k == n,
	}
	copy(row.nodes, s.order)
	for i, v := range row.nodes {
		row.dist[i] = s.dist[v]
		row.parent[i] = s.parent[v]
		row.idx[v] = int32(i)
	}
	s.reset()
	return row
}
