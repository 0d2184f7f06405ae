package server

import (
	"sync"
	"sync/atomic"

	"compactrouting/internal/frame"
)

// liteWays is the associativity of the route cache: each key may sit
// in any of the ways of the one set its hash selects.
const liteWays = 4

// liteUseMax saturates a way's use counter: two bits.
const liteUseMax = 3

// liteCache is the engine's route cache, shared by both planes: a flat
// array of 4-way sets holding route shapes by value. A shape-only hit,
// miss, insert or eviction touches only preallocated memory, which is
// what lets the framed batch route path pin 0 allocs/op. The hash
// selects a set; each way stores its full key, compared explicitly.
//
// Admission is frequency-aware. Every way carries a 2-bit use counter,
// bumped by each hit on it. A put takes, in order: the way already
// holding its key; an empty way or one left by an older generation;
// the least-used way of its own generation, but only if that way's
// counter is 0. Otherwise the put is declined and the set ages (every
// counter drops by one), so a way that stops being hit decays to 0 and
// becomes evictable while hot pairs survive a stream of one-off misses
// (TestLiteCacheZipfHitRatio pins the gain over one slot per hash on a
// Zipf(1.1) stream; DESIGN.md §server architecture has the figures).
//
// The key includes the engine state generation the route was computed
// against: reload advances the generation, making every old entry
// unreachable without a stop-the-world purge; those ways are the first
// a put reclaims. A slow query that finishes against the old state can
// never poison the new one: a put never displaces an entry of a newer
// generation than its own.
type liteCache struct {
	// sets holds no pointers, so the collector never scans it; a
	// pointerful set array would cost every GC cycle a scan of the
	// whole cache.
	sets []liteSet
	// ways is the number of ways in use per set: min(liteWays, slots).
	ways int
	// paths holds each way's path at index set*ways + way: shared and
	// immutable once stored, nil for a shape-only walk. It is allocated
	// with the first path stored, so shape-only traffic never carries
	// it. An entry is read and written under its set's mu.
	paths    atomic.Pointer[[][]int] // guarded by atomic
	mask     uint64
	hits     atomic.Uint64 // guarded by atomic
	miss     atomic.Uint64 // guarded by atomic
	evicted  atomic.Uint64 // guarded by atomic; full ways overwritten with a different key
	declined atomic.Uint64 // guarded by atomic; puts refused: no way was free, stale or unused
	full     atomic.Int64  // guarded by atomic; ways holding a route
}

// liteSet is one set of the cache: liteWays ways, index-aligned across
// the arrays, all under one mutex.
type liteSet struct {
	mu  sync.Mutex
	key [liteWays]liteKey           // guarded by mu
	use [liteWays]uint8             // guarded by mu; 2-bit saturating hit counter
	res [liteWays]frame.RouteResult // guarded by mu
}

// liteKey identifies a cached route; the zero value (full false) marks
// an empty way.
type liteKey struct {
	full   bool
	scheme int32
	src    int32
	dst    int32
	gen    uint64
}

// newLiteCache sizes the cache to the largest power of two of slots
// not exceeding entries (minimum 1), grouped into sets of
// min(liteWays, slots) ways; entries <= 0 disables the cache.
func newLiteCache(entries int) *liteCache {
	if entries <= 0 {
		return nil
	}
	n := 1
	for n*2 <= entries {
		n *= 2
	}
	ways := min(liteWays, n)
	sets := n / ways
	return &liteCache{sets: make([]liteSet, sets), ways: ways, mask: uint64(sets - 1)}
}

// liteHash mixes the pair's fields (FNV-1a). The generation is left
// out, so a pair's set is the same across reloads and its new route
// reclaims the way of its stale one.
func liteHash(scheme, src, dst int) uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(scheme)) * 1099511628211
	h = (h ^ uint64(src)) * 1099511628211
	h = (h ^ uint64(dst)) * 1099511628211
	return h
}

func newLiteKey(scheme, src, dst int, gen uint64) liteKey {
	return liteKey{full: true, scheme: int32(scheme), src: int32(src), dst: int32(dst), gen: gen}
}

// get returns the cached shape and path for the key at the given
// generation, counting a hit on the way. A query that wants the path
// misses on a way holding only the shape. The counter updates ride
// inside the critical section: they are atomics, and the deferred
// unlock keeps the lock/unlock pairing syntactically checkable
// (lockorder) on this hot function.
//
//determinlint:hotpath
func (c *liteCache) get(scheme, src, dst int, gen uint64, wantPath bool) (frame.RouteResult, []int, bool) {
	i := int(liteHash(scheme, src, dst) & c.mask)
	k := newLiteKey(scheme, src, dst, gen)
	s := &c.sets[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	for w := 0; w < c.ways; w++ {
		if s.key[w] != k {
			continue
		}
		var path []int
		if paths := c.paths.Load(); paths != nil {
			path = (*paths)[i*c.ways+w]
		}
		if wantPath && path == nil {
			break
		}
		if s.use[w] < liteUseMax {
			s.use[w]++
		}
		c.hits.Add(1)
		return s.res[w], path, true
	}
	c.miss.Add(1)
	return frame.RouteResult{}, nil, false
}

// put stores a shape and its path (nil for a shape-only walk) in the
// way claimLocked picks, or declines it.
//
//determinlint:hotpath
func (c *liteCache) put(scheme, src, dst int, gen uint64, res frame.RouteResult, path []int) {
	i := int(liteHash(scheme, src, dst) & c.mask)
	k := newLiteKey(scheme, src, dst, gen)
	paths := c.paths.Load()
	if paths == nil && path != nil {
		//determinlint:allow hotpath the path table is allocated once per cache, by the first path stored; shape-only traffic never stores one
		paths = c.pathTable()
	}
	s := &c.sets[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.claimLocked(k, c.ways)
	if w < 0 {
		c.declined.Add(1)
		return
	}
	switch old := s.key[w]; {
	case !old.full:
		c.full.Add(1)
		s.use[w] = 0
	case old != k:
		c.evicted.Add(1)
		s.use[w] = 0
	}
	s.key[w] = k
	s.res[w] = res
	if paths != nil {
		(*paths)[i*c.ways+w] = path
	}
}

// claimLocked returns the way a put of k takes, or -1 to decline it:
// the way holding k; else the first empty way or way of an older
// generation; else the least-used way of k's generation if its counter
// is 0. A declined put ages the set, unless the set holds a newer
// generation than k's: a stale put wears nothing down. The caller
// holds s.mu.
func (s *liteSet) claimLocked(k liteKey, ways int) int {
	free, victim, newer := -1, -1, false
	for w := 0; w < ways; w++ {
		switch e := s.key[w]; {
		case e == k:
			return w
		case !e.full || e.gen < k.gen:
			if free < 0 {
				free = w
			}
		case e.gen > k.gen:
			newer = true
		case victim < 0 || s.use[w] < s.use[victim]:
			victim = w
		}
	}
	switch {
	case free >= 0:
		return free
	case victim >= 0 && s.use[victim] == 0:
		return victim
	case !newer:
		for w := 0; w < ways; w++ {
			if s.use[w] > 0 {
				s.use[w]--
			}
		}
	}
	return -1
}

// pathTable returns the path table, allocating it on first use.
func (c *liteCache) pathTable() *[][]int {
	fresh := make([][]int, len(c.sets)*c.ways)
	c.paths.CompareAndSwap(nil, &fresh)
	return c.paths.Load()
}

// liteStats is a snapshot of the cache's cumulative counters and the
// number of ways holding a route.
type liteStats struct {
	hits, misses, evicted, declined uint64
	size                            int
}

// stats reports the counters (zeros when disabled).
func (c *liteCache) stats() liteStats {
	if c == nil {
		return liteStats{}
	}
	return liteStats{
		hits:     c.hits.Load(),
		misses:   c.miss.Load(),
		evicted:  c.evicted.Load(),
		declined: c.declined.Load(),
		size:     int(c.full.Load()),
	}
}
