package server

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"compactrouting/internal/frame"
)

// zipfPairs draws q pairs over 2048 nodes from a seeded Zipf(1.1)
// rank stream, the popularity law of the serving benchmark. Rank r
// maps to a pair through a fixed bijection of the 2^22 pair ids, so
// the hot pairs are scattered over the hash space.
func zipfPairs(seed int64, q int) [][2]int {
	const idBits, mask = 11, 1<<22 - 1
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, mask)
	out := make([][2]int, q)
	for i := range out {
		k := (z.Uint64()*0x9E3779B1 + 12345) & mask
		k ^= k >> idBits
		k = k * 0x2545F491 & mask
		out[i] = [2]int{int(k >> idBits), int(k & (1<<idBits - 1))}
	}
	return out
}

// directMapped is the cache's former policy, kept here as the baseline:
// one slot per hash, every miss overwrites it.
type directMapped struct {
	slots [][2]int
	full  []bool
}

func (d *directMapped) lookupOrStore(p [2]int) bool {
	i := liteHash(0, p[0], p[1]) & uint64(len(d.slots)-1)
	if d.full[i] && d.slots[i] == p {
		return true
	}
	d.slots[i], d.full[i] = p, true
	return false
}

func TestLiteCacheZipfHitRatio(t *testing.T) {
	// One goroutine replays a seeded Zipf stream through the engine's
	// miss-then-put pattern. The hit count is a pure function of the
	// stream, so it is pinned exactly; the 4-way admission policy must
	// also beat the direct-mapped baseline by at least 3 points.
	const slots, queries = 4096, 200_000
	const wantHits = 136159
	c := newLiteCache(slots)
	dm := &directMapped{slots: make([][2]int, slots), full: make([]bool, slots)}
	dmHits := 0
	for _, p := range zipfPairs(1, queries) {
		if _, _, ok := c.get(0, p[0], p[1], 0, false); !ok {
			c.put(0, p[0], p[1], 0, frame.RouteResult{Status: frame.StatusOK}, nil)
		}
		if dm.lookupOrStore(p) {
			dmHits++
		}
	}
	st := c.stats()
	ratio, dmRatio := float64(st.hits)/queries, float64(dmHits)/queries
	t.Logf("hit ratio %.4f (direct-mapped %.4f), %d evicted, %d declined", ratio, dmRatio, st.evicted, st.declined)
	if st.hits != wantHits {
		t.Errorf("%d hits, want %d", st.hits, wantHits)
	}
	if ratio < dmRatio+0.03 {
		t.Errorf("hit ratio %.4f does not beat direct-mapped %.4f by 3 points", ratio, dmRatio)
	}
	if st.hits+st.misses != queries || st.size > slots {
		t.Errorf("counters %+v over %d queries, %d slots", st, queries, slots)
	}
}

// collidingPairs returns k pairs (src, dst) of scheme 0 whose hash
// selects the same set of c.
func collidingPairs(c *liteCache, k int) [][2]int {
	var out [][2]int
	want := liteHash(0, 0, 1) & c.mask
	for src := 0; len(out) < k; src++ {
		if liteHash(0, src, 1)&c.mask == want {
			out = append(out, [2]int{src, 1})
		}
	}
	return out
}

// pairResult tags a route with its pair and a version, so a reader can
// tell whose result it got.
func pairResult(p [2]int, version int) frame.RouteResult {
	return frame.RouteResult{Status: frame.StatusOK, Hops: int32(version), Cost: float64(p[0]*4096 + p[1])}
}

func TestLiteCacheSetRace(t *testing.T) {
	// Six keys share one 4-way set, so puts keep claiming and evicting
	// ways while readers look them up. A hit must carry its own key's
	// shape, and a path that belongs to that shape.
	c := newLiteCache(64)
	keys := collidingPairs(c, 6)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := keys[(g+i)%len(keys)]
				if g%2 == 0 {
					hops := 1 + i%5
					path := make([]int, hops+1)
					path[0], path[hops] = p[0], p[1]
					c.put(0, p[0], p[1], 0, pairResult(p, hops), path)
					continue
				}
				res, path, ok := c.get(0, p[0], p[1], 0, g%4 == 1)
				if !ok {
					continue
				}
				if res.Cost != pairResult(p, 0).Cost {
					t.Errorf("key %v: got the shape of cost %v", p, res.Cost)
					return
				}
				if path != nil && (len(path) != int(res.Hops)+1 || path[0] != p[0] || path[res.Hops] != p[1]) {
					t.Errorf("key %v: %d hops with path %v", p, res.Hops, path)
					return
				}
				if g%4 == 1 && path == nil {
					t.Errorf("key %v: path query hit without a path", p)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
	if st := c.stats(); st.size > 64 {
		t.Fatalf("%d resident entries in a 64-slot cache", st.size)
	}
}

func TestLiteCacheGenerations(t *testing.T) {
	c := newLiteCache(16)
	keys := collidingPairs(c, 8)
	put := func(p [2]int, gen uint64) {
		c.put(0, p[0], p[1], gen, pairResult(p, 1), nil)
	}
	has := func(p [2]int, gen uint64) bool {
		_, _, ok := c.get(0, p[0], p[1], gen, false)
		return ok
	}
	// Generation 0 fills the set with hot entries: saturated counters.
	for _, p := range keys[:4] {
		put(p, 0)
		for range liteUseMax {
			has(p, 0)
		}
	}
	// After a reload, two new keys of generation 1 claim stale ways,
	// however hot those were.
	for _, p := range keys[4:6] {
		put(p, 1)
	}
	if st := c.stats(); st.declined != 0 || st.evicted != 2 {
		t.Fatalf("generation-1 puts into a stale set: %+v, want 2 evicted, 0 declined", st)
	}
	// Two more: the set still holds two stale ways, and they go before
	// either current entry, although both current ones sit at counter 0.
	for _, p := range keys[6:8] {
		put(p, 1)
	}
	for _, p := range keys[4:8] {
		if !has(p, 1) {
			t.Fatalf("current entry %v was displaced while stale ways remained", p)
		}
	}
	// A slow query finishing against generation 0 stores nothing: every
	// way is current, even the ones at counter 0.
	for _, p := range keys[5:7] {
		for range liteUseMax {
			has(p, 1)
		}
	}
	before := c.stats()
	put(keys[0], 0)
	after := c.stats()
	if after.declined != before.declined+1 || has(keys[0], 0) {
		t.Fatalf("old-generation put was admitted: before %+v after %+v", before, after)
	}
	for _, p := range keys[4:8] {
		if !has(p, 1) {
			t.Fatalf("old-generation put displaced current entry %v", p)
		}
	}
	// Counters now read 2, 3, 3, 2 for keys 4–7 (the stale put aged
	// nothing). A current put into this set is declined, aging it, until
	// a way decays to 0: two declines, then the put evicts a least-used
	// way and the two hottest entries stay.
	for range 3 {
		put(keys[0], 1)
	}
	if st := c.stats(); st.declined != after.declined+2 || !has(keys[0], 1) {
		t.Fatalf("current put into a hot set: %+v, want 2 more declines then admission", st)
	}
	for _, p := range keys[5:7] {
		if !has(p, 1) {
			t.Fatalf("hot entry %v evicted before a cold one", p)
		}
	}
}

// FuzzLiteCache runs op scripts on a tiny cache against a model of the
// last put per key: a hit returns exactly the latest shape and path
// put for its (scheme, src, dst, gen); a path query hits only with a
// path; resident entries never exceed the capacity.
//
// Script: byte 0 picks the capacity (1..8 entries), then each op is
// two bytes: op = b0 & 3 (0 put shape, 1 put with path, 2 get shape,
// 3 get path), key = b1 (scheme 1 bit, src 2 bits, dst 2 bits, gen 2
// bits).
func FuzzLiteCache(f *testing.F) {
	f.Add([]byte{4, 0, 0x00, 2, 0x00, 3, 0x00, 1, 0x00, 3, 0x00})
	f.Add([]byte{1, 0, 0x01, 2, 0x01, 0, 0x02, 2, 0x01, 2, 0x02})
	f.Add([]byte{8, 1, 0x10, 1, 0x30, 1, 0x50, 1, 0x70, 1, 0x11, 3, 0x10, 2, 0x70})
	f.Add([]byte{7, 0, 0x05, 0, 0x45, 2, 0x05, 1, 0x05, 3, 0x05, 3, 0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0])%8
		c := newLiteCache(capacity)
		type entry struct {
			res  frame.RouteResult
			path []int
		}
		latest := map[byte]entry{}
		for i := 1; i+1 < len(data); i += 2 {
			op, k := data[i]&3, data[i+1]&0x7f
			scheme, src, dst, gen := int(k>>6), int(k>>4&3), int(k>>2&3), uint64(k&3)
			switch op {
			case 0, 1:
				e := entry{res: frame.RouteResult{Hops: int32(i), Cost: float64(k)}}
				if op == 1 {
					e.path = []int{src, i, dst}
				}
				c.put(scheme, src, dst, gen, e.res, e.path)
				latest[k] = e
			case 2, 3:
				res, path, ok := c.get(scheme, src, dst, gen, op == 3)
				if !ok {
					break
				}
				want, put := latest[k]
				if !put || res != want.res || !slices.Equal(path, want.path) {
					t.Fatalf("op %d: get %d hit (%+v, %v), latest put (%+v, %v, ever %v)", i, k, res, path, want.res, want.path, put)
				}
				if op == 3 && path == nil {
					t.Fatalf("op %d: path query on %d hit without a path", i, k)
				}
			}
			if size := c.stats().size; size > capacity {
				t.Fatalf("op %d: %d resident entries, capacity %d", i, size, capacity)
			}
		}
	})
}
