package metric

import (
	"sync"
	"sync/atomic"

	"compactrouting/internal/graph"
	"compactrouting/internal/par"
)

// BallRow is one source's ball B_u(r) as SweepBalls hands it to its
// visitor. Nodes lists the ball in (distance, id) order — the prefix
// of u's order row that AppendBall(u, r) returns — and for each
// position k, Dist(k) is Dist(u, Nodes[k]) with source-u summation
// order, and Parent(k) is Nodes[k]'s parent in u's shortest-path tree,
// which is NextHop(Nodes[k], u) (-1 at u itself).
//
// A row belongs to the sweep: it is valid only during the visit call
// that receives it, must not be written, and its memory is reused for
// the next row.
type BallRow struct {
	Nodes []int32
	// The lazy and generic sweeps fill dist and parent by position;
	// the dense sweep leaves them nil and reads its matrices at
	// (a, u) instead, so a visitor pays only for what it reads.
	dist   []float64
	parent []int32
	a      *APSP
	u      int
}

// Dist returns Dist(u, Nodes[k]).
func (r *BallRow) Dist(k int) float64 {
	if r.a != nil {
		return r.a.dist[r.u*r.a.n+int(r.Nodes[k])]
	}
	return r.dist[k]
}

// Parent returns NextHop(Nodes[k], u), -1 when Nodes[k] is u.
func (r *BallRow) Parent(k int) int {
	if r.a != nil {
		return int(r.a.nextHop[int(r.Nodes[k])*r.a.n+r.u])
	}
	return int(r.parent[k])
}

// sweepRowsPerWorker sizes the lazy sweep's window of built-but-not-
// yet-visited rows, per worker: wide enough that the workers run ahead
// of the visitor instead of handing it one row at a time (small rows
// cost less to build than a goroutine wake-up), narrow enough that the
// window — the only rows a sweep holds — stays a few rows per worker.
const sweepRowsPerWorker = 8

// SweepBalls visits B_u(r) for every u in sources, serially and in the
// given source order (duplicates are visited again). It is the batch
// form of the center-first construction pattern: each center reads its
// own ball with source-rooted distances and the tree toward it, and
// nothing else. Every row it visits is the bytes AppendBall, Dist and
// NextHop return for the same queries, on every backend.
//
//   - APSP reads the matrix rows.
//   - LazyOracle builds rows in parallel, a few per worker ahead of
//     the visitor, into reused slots, visits them and drops them:
//     sweep rows never enter the LRU (the next level needs twice the
//     radius, so they would not be read again), so a sweep evicts
//     nothing, caches nothing and holds at most one window of rows.
//     Each row is counted in Stats as one row built, serially in
//     source order.
//   - Any other Distancer (a decorator, say) answers through
//     PrefetchBalls plus AppendBall, Dist and NextHop, prefetching the
//     sources in chunks sized to fit the default lazy entry budget, so
//     a wrapped lazy oracle reads every chunk from its cache.
func SweepBalls(a Distancer, sources []int, r float64, visit func(u int, row BallRow)) {
	switch a := a.(type) {
	case *APSP:
		a.sweepBalls(sources, r, visit)
	case *LazyOracle:
		a.sweepBalls(sources, r, visit)
	default:
		sweepByQueries(a, sources, r, visit)
	}
}

// sweepBalls hands out each ball as a window on the matrices: the
// order-row prefix, read through dist row u and column u of nextHop.
func (a *APSP) sweepBalls(sources []int, r float64, visit func(int, BallRow)) {
	for _, u := range sources {
		visit(u, BallRow{Nodes: a.order[u*a.n : u*a.n+a.BallSize(u, r)], a: a, u: u})
	}
}

// sweepBalls builds rows on one worker per P, each on its own kernel
// scratch, into a window of reused slots, while the caller visits them
// in source order. A worker takes a window token before claiming the
// next source, and the visitor returns one after each visit, so the
// rows claimed but not yet visited never outnumber the window: row i
// owns slot i mod window alone, and the visitor waits only for the row
// it needs next. It takes the oracle's mutex only to count each row
// before its visit: the graph is immutable, and the LRU is never
// touched.
func (o *LazyOracle) sweepBalls(sources []int, r float64, visit func(int, BallRow)) {
	if len(sources) == 0 {
		return
	}
	workers := par.SuggestedWorkers(len(sources))
	window := min(sweepRowsPerWorker*workers, len(sources))
	slots := make([]BallRow, window)
	ready := make([]chan struct{}, window)
	tokens := make(chan struct{}, window)
	for j := range ready {
		ready[j] = make(chan struct{}, 1)
		tokens <- struct{}{}
	}
	stop := make(chan struct{})
	var (
		claimed atomic.Int64
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newSSSP(o.n)
			for {
				select {
				case <-tokens:
				case <-stop:
					return
				}
				i := int(claimed.Add(1) - 1)
				if i >= len(sources) {
					return
				}
				ballRow(s, o.g, sources[i], r, &slots[i%window])
				ready[i%window] <- struct{}{}
			}
		}()
	}
	// Stop the workers however the visits end (a visitor may panic or
	// call runtime.Goexit).
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i, u := range sources {
		row := &slots[i%window]
		<-ready[i%window]
		o.mu.Lock()
		o.stats.RowsBuilt++
		o.stats.Settled += uint64(len(row.Nodes))
		o.mu.Unlock()
		visit(u, *row)
		tokens <- struct{}{}
	}
}

// ballRow runs the kernel from src on clean scratch s until every node
// at distance <= r has settled, writes B_src(r) into row (reusing its
// slices) and leaves s clean. The kernel pops distances in
// nondecreasing order, so once the nearest queued node lies beyond r
// the ball is complete, boundary ties included; no node past r is
// settled. Distances and parents are final at settle, so the row is
// the exact prefix of the full run's order row (sorted first if
// rounding disturbed the settle order, as in buildRow).
func ballRow(s *sssp, g *graph.Graph, src int, r float64, row *BallRow) {
	s.start(src)
	for !s.empty() && s.nextDist() <= r {
		s.settle(g)
	}
	if s.unsorted {
		s.sortOrder()
	}
	row.Nodes = append(row.Nodes[:0], s.order...)
	row.dist, row.parent = row.dist[:0], row.parent[:0]
	for _, v := range s.order {
		row.dist = append(row.dist, s.dist[v])
		row.parent = append(row.parent, s.parent[v])
	}
	s.reset()
}

// sweepByQueries is the generic sweep: it prefetches a chunk of
// sources, then reads each ball through the Distancer queries. The
// first chunk is one source; after that the chunk length keeps the
// chunk's balls, estimated from the largest ball seen so far, within
// half the default lazy entry budget (a prefetched row runs a little
// past its ball), so a wrapped LazyOracle at that budget holds a whole
// chunk and every read after the prefetch is a cache hit.
func sweepByQueries(a Distancer, sources []int, r float64, visit func(int, BallRow)) {
	budget := defaultLazyEntries(a.N()) / 2
	var (
		row     BallRow
		ball    []int
		largest int
	)
	for lo := 0; lo < len(sources); {
		step := 1
		if largest > 0 {
			step = max(1, budget/largest)
		}
		hi := min(lo+step, len(sources))
		PrefetchBalls(a, sources[lo:hi], r)
		for _, u := range sources[lo:hi] {
			ball = a.AppendBall(ball[:0], u, r)
			largest = max(largest, len(ball))
			row.Nodes, row.dist, row.parent = row.Nodes[:0], row.dist[:0], row.parent[:0]
			for _, v := range ball {
				row.Nodes = append(row.Nodes, int32(v))
				row.dist = append(row.dist, a.Dist(u, v))
				row.parent = append(row.parent, int32(a.NextHop(v, u)))
			}
			visit(u, row)
		}
		lo = hi
	}
}
