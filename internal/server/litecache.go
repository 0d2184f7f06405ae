package server

import (
	"sync"
	"sync/atomic"

	"compactrouting/internal/frame"
)

// liteCache is the engine's route cache, shared by both planes: a flat,
// direct-mapped slot array holding route shapes by value. A shape-only
// hit, miss or overwrite touches only preallocated memory, which is
// what lets the framed batch route path pin 0 allocs/op. The hash
// selects a slot; the slot stores the full key and is compared
// explicitly, so colliding queries simply overwrite each other
// (direct-mapped eviction).
//
// The key includes the engine state generation the route was computed
// against: reload advances the generation, making every old slot
// unreachable without a stop-the-world purge, and a slow query that
// finishes against the old state can never poison the new one.
type liteCache struct {
	// slots holds no pointers, so the collector never scans it; a
	// pointerful slot array would cost every GC cycle a scan of the
	// whole cache.
	slots []liteSlot
	// paths holds each slot's path, index-aligned with slots: shared
	// and immutable once stored, nil for a shape-only walk. It is
	// allocated with the first path stored, so shape-only traffic
	// never carries it. Entry i is read and written under slots[i].mu.
	paths   atomic.Pointer[[][]int] // guarded by atomic
	mask    uint64
	hits    atomic.Uint64 // guarded by atomic
	miss    atomic.Uint64 // guarded by atomic
	evicted atomic.Uint64 // guarded by atomic; full slots overwritten with a different key
	full    atomic.Int64  // guarded by atomic; slots holding a route
}

type liteSlot struct {
	mu     sync.Mutex
	full   bool              // guarded by mu
	scheme int32             // guarded by mu
	src    int32             // guarded by mu
	dst    int32             // guarded by mu
	gen    uint64            // guarded by mu
	res    frame.RouteResult // guarded by mu
}

// newLiteCache sizes the slot array to the largest power of two not
// exceeding entries (minimum 1); entries <= 0 disables the cache.
func newLiteCache(entries int) *liteCache {
	if entries <= 0 {
		return nil
	}
	n := 1
	for n*2 <= entries {
		n *= 2
	}
	return &liteCache{slots: make([]liteSlot, n), mask: uint64(n - 1)}
}

// hash mixes the key fields (FNV-1a).
func liteHash(scheme, src, dst int, gen uint64) uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(scheme)) * 1099511628211
	h = (h ^ uint64(src)) * 1099511628211
	h = (h ^ uint64(dst)) * 1099511628211
	h = (h ^ gen) * 1099511628211
	return h
}

// matchesLocked reports whether the slot holds the key; the caller
// holds s.mu.
func (s *liteSlot) matchesLocked(scheme, src, dst int, gen uint64) bool {
	return s.full && s.scheme == int32(scheme) && s.src == int32(src) && s.dst == int32(dst) && s.gen == gen
}

// get returns the cached shape and path for the key at the given
// generation. A query that wants the path misses on a slot holding
// only the shape. The counter updates ride inside the critical
// section: they are atomics, and the deferred unlock keeps the
// lock/unlock pairing syntactically checkable (lockorder) on this hot
// function.
//
//determinlint:hotpath
func (c *liteCache) get(scheme, src, dst int, gen uint64, wantPath bool) (frame.RouteResult, []int, bool) {
	i := liteHash(scheme, src, dst, gen) & c.mask
	s := &c.slots[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	var path []int
	if paths := c.paths.Load(); paths != nil {
		path = (*paths)[i]
	}
	if !s.matchesLocked(scheme, src, dst, gen) || (wantPath && path == nil) {
		c.miss.Add(1)
		return frame.RouteResult{}, nil, false
	}
	c.hits.Add(1)
	return s.res, path, true
}

// put stores a shape and its path (nil for a shape-only walk),
// overwriting whatever occupied the slot.
//
//determinlint:hotpath
func (c *liteCache) put(scheme, src, dst int, gen uint64, res frame.RouteResult, path []int) {
	i := liteHash(scheme, src, dst, gen) & c.mask
	paths := c.paths.Load()
	if paths == nil && path != nil {
		//determinlint:allow hotpath the path table is allocated once per cache, by the first path stored; shape-only traffic never stores one
		paths = c.pathTable()
	}
	s := &c.slots[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.full:
		c.full.Add(1)
	case !s.matchesLocked(scheme, src, dst, gen):
		c.evicted.Add(1)
	}
	s.full = true
	s.scheme, s.src, s.dst = int32(scheme), int32(src), int32(dst)
	s.gen = gen
	s.res = res
	if paths != nil {
		(*paths)[i] = path
	}
}

// pathTable returns the path table, allocating it on first use.
func (c *liteCache) pathTable() *[][]int {
	fresh := make([][]int, len(c.slots))
	c.paths.CompareAndSwap(nil, &fresh)
	return c.paths.Load()
}

// stats reports cumulative counters and the number of full slots
// (zeros when disabled).
func (c *liteCache) stats() (hits, misses, evicted uint64, size int) {
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.hits.Load(), c.miss.Load(), c.evicted.Load(), int(c.full.Load())
}
