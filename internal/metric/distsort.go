package metric

import (
	"math"
	"slices"
)

// sortByDist's keys are split into six 11-bit digits (the top one has
// 9 bits): fewer passes than bytes, with histograms that stay small
// next to a row.
const (
	digitBits = 11
	digitMask = 1<<digitBits - 1
)

// distSorter is reusable scratch for sortByDist, owned by one worker.
type distSorter struct {
	tmp   []int32
	count [6][1 << digitBits]int32 // per-digit histograms of the keys
}

// distKey maps a distance to a uint64 whose unsigned order is the
// float order: -0 folds onto +0 (they compare equal), then the sign bit
// is flipped on non-negative values and every bit on negative ones. For
// the non-negative distances of a metric this is the IEEE bit pattern
// with the top bit set.
func distKey(d float64) uint64 {
	b := math.Float64bits(d)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortByDist sorts nodes by (dist[v], v), the order-row order, without
// a float compare: the nodes are put in id order (a no-op for callers
// that start from it), then a stable LSD radix sort over the digits of
// distKey orders them by distance, so equal distances keep id order.
// Digits on which every key agrees are skipped.
func (ds *distSorter) sortByDist(nodes []int32, dist []float64) {
	n := len(nodes)
	if n < 2 {
		return
	}
	if !slices.IsSorted(nodes) {
		slices.Sort(nodes)
	}
	c := &ds.count
	*c = [6][1 << digitBits]int32{}
	for _, v := range nodes {
		k := distKey(dist[v])
		c[0][k&digitMask]++
		c[1][k>>(1*digitBits)&digitMask]++
		c[2][k>>(2*digitBits)&digitMask]++
		c[3][k>>(3*digitBits)&digitMask]++
		c[4][k>>(4*digitBits)&digitMask]++
		c[5][k>>(5*digitBits)&digitMask]++
	}
	if cap(ds.tmp) < n {
		ds.tmp = make([]int32, n)
	}
	src, dst := nodes, ds.tmp[:n]
	first := distKey(dist[nodes[0]])
	for d := range c {
		h := &c[d]
		shift := uint(d * digitBits)
		if h[first>>shift&digitMask] == int32(n) {
			continue
		}
		var sum int32
		for b, k := range h {
			h[b] = sum
			sum += k
		}
		for _, v := range src {
			b := distKey(dist[v]) >> shift & digitMask
			dst[h[b]] = v
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &nodes[0] {
		copy(nodes, src)
	}
}
