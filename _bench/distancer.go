package main

import (
	"sync"
	"sync/atomic"
	"time"

	"compactrouting/internal/metric"
)

// timeEvery is the sampling stride of countingDistancer's timer: every
// call is counted, one call in timeEvery is timed and the timed total
// is scaled up. Timing all ~4·10⁷ calls a dense name-independent build
// makes would more than double the build it is measuring.
const timeEvery = 64

// countingDistancer is a metric.Distancer decorator: it forwards every
// query to the wrapped oracle unchanged, counts the calls and estimates
// the time spent inside them. It also forwards the optional
// PrefetchBalls and Diameter fast paths, so a construction run through
// it takes the same branches (and builds the same tables) as one run on
// the bare oracle.
type countingDistancer struct {
	in      metric.Distancer
	off     atomic.Bool
	calls   atomic.Int64
	timed   atomic.Int64
	timedNS atomic.Int64
}

var _ metric.Prefetcher = (*countingDistancer)(nil)

func newCountingDistancer(in metric.Distancer) *countingDistancer {
	return &countingDistancer{in: in}
}

// Calls returns the number of forwarded calls so far.
func (d *countingDistancer) Calls() int64 { return d.calls.Load() }

// Seconds estimates the wall time spent inside the wrapped oracle,
// summed over all callers (it can exceed elapsed time when a parallel
// construction queries from several goroutines).
// The cost of the clock reads themselves is subtracted.
func (d *countingDistancer) Seconds() float64 {
	t := d.timed.Load()
	if t == 0 {
		return 0
	}
	ns := max(0, float64(d.timedNS.Load())-float64(t)*clockCostNS())
	return ns / 1e9 * float64(d.calls.Load()) / float64(t)
}

var clockCost = sync.OnceValue(func() float64 {
	const reads = 4096
	samples := make([]float64, reads)
	for i := range samples {
		s := time.Now()
		samples[i] = float64(time.Since(s))
	}
	return median(samples)
})

// clockCostNS is the median cost of one time.Now plus time.Since pair.
func clockCostNS() float64 { return clockCost() }

// stop ends counting: later calls are forwarded with no bookkeeping
// beyond one flag load, so the engine can serve through the decorator.
func (d *countingDistancer) stop() { d.off.Store(true) }

func (d *countingDistancer) begin() (time.Time, bool) {
	if d.off.Load() || d.calls.Add(1)%timeEvery != 1 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (d *countingDistancer) end(start time.Time, timed bool) {
	if timed {
		d.timed.Add(1)
		d.timedNS.Add(int64(time.Since(start)))
	}
}

func (d *countingDistancer) N() int { return d.in.N() }

func (d *countingDistancer) Dist(u, v int) float64 {
	s, ok := d.begin()
	r := d.in.Dist(u, v)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) NextHop(u, v int) int {
	s, ok := d.begin()
	r := d.in.NextHop(u, v)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) Kth(u, k int) int {
	s, ok := d.begin()
	r := d.in.Kth(u, k)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) RadiusOfSize(u, size int) float64 {
	s, ok := d.begin()
	r := d.in.RadiusOfSize(u, size)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) BallOfSize(u, size int) []int {
	s, ok := d.begin()
	r := d.in.BallOfSize(u, size)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) AppendBallOfSize(dst []int, u, size int) []int {
	s, ok := d.begin()
	r := d.in.AppendBallOfSize(dst, u, size)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) Ball(u int, rad float64) []int {
	s, ok := d.begin()
	r := d.in.Ball(u, rad)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) AppendBall(dst []int, u int, rad float64) []int {
	s, ok := d.begin()
	r := d.in.AppendBall(dst, u, rad)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) BallSize(u int, rad float64) int {
	s, ok := d.begin()
	r := d.in.BallSize(u, rad)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) Nearest(u int, set []int) (int, float64) {
	s, ok := d.begin()
	v, dv := d.in.Nearest(u, set)
	d.end(s, ok)
	return v, dv
}

func (d *countingDistancer) Eccentricity(u int) float64 {
	s, ok := d.begin()
	r := d.in.Eccentricity(u)
	d.end(s, ok)
	return r
}

func (d *countingDistancer) MinPairDistance() float64 {
	s, ok := d.begin()
	r := d.in.MinPairDistance()
	d.end(s, ok)
	return r
}

// Diameter keeps metric.DiameterOf on the wrapped oracle's own path
// (the dense backend answers from its matrix instead of n
// eccentricity queries).
func (d *countingDistancer) Diameter() float64 {
	s, ok := d.begin()
	r := metric.DiameterOf(d.in)
	d.end(s, ok)
	return r
}

// PrefetchBalls forwards the lazy backend's batching hint (a no-op on
// the dense backend), so wrapping never changes how rows are filled.
func (d *countingDistancer) PrefetchBalls(sources []int, r float64) {
	s, ok := d.begin()
	metric.PrefetchBalls(d.in, sources, r)
	d.end(s, ok)
}
