package metric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file drives the kernel's queue (push, decrease, pop, nextDist)
// directly, below the graph layer, against a reference that keeps the
// queued keys in a plain slice and takes the minimum (distance, id)
// by scan. Scripts keep keys monotone, as every run does: no key goes
// below the queue's floor, the key last popped or peeked.

// Queue script ops; a script is a node-count byte followed by 4-byte
// records (op, node, key selector, key argument).
const (
	qopPush = iota
	qopDecrease
	qopPop
	qopPeek
	qopCount
)

// queueKey picks an adversarial candidate key from floor, the smallest
// key the script may use: floor itself (equal bit patterns), one ulp
// or a few bit patterns above it, subnormals, +0, the largest finite
// magnitudes, powers of two across the whole exponent range, and small
// integer steps (tie classes). The caller clamps candidates below
// floor up to it.
func queueKey(floor float64, sel, arg byte) float64 {
	switch sel % 8 {
	case 0:
		return floor
	case 1:
		return math.Nextafter(floor, math.Inf(1))
	case 2:
		return math.Float64frombits(math.Float64bits(floor) + uint64(arg))
	case 3:
		return math.Float64frombits(uint64(arg)+1) * float64(uint64(1)<<(arg%40))
	case 4:
		return 0
	case 5:
		return math.Float64frombits(math.Float64bits(math.MaxFloat64) - uint64(arg%4))
	case 6:
		return math.Ldexp(1+float64(arg%4)/4, int(arg)*8-1020)
	default:
		return floor + float64(arg%4)
	}
}

// checkQueueScript runs one script on fresh kernel scratch and fails t
// at the first pop or peek that disagrees with the reference, or at
// the first queue-state mismatch.
func checkQueueScript(t *testing.T, script []byte) {
	t.Helper()
	if len(script) == 0 {
		return
	}
	n := 2 + int(script[0])%31
	s := newSSSP(n)
	key := make([]float64, n) // reference key of each queued node
	queued := make([]bool, n)
	count := 0
	floor := 0.0
	refMin := func() int32 {
		best := int32(-1)
		for v := 0; v < n; v++ {
			if !queued[v] {
				continue
			}
			if best < 0 || math.Float64bits(key[v]) < math.Float64bits(key[best]) {
				best = int32(v)
			}
		}
		return best
	}
	clamp := func(k float64) float64 {
		if math.IsNaN(k) || math.IsInf(k, 0) || k < floor {
			return floor
		}
		return k
	}
	for i := 1; i+3 < len(script); i += 4 {
		op, v := script[i]%qopCount, int32(int(script[i+1])%n)
		sel, arg := script[i+2], script[i+3]
		what := fmt.Sprintf("record %d (op %d, node %d, sel %d, arg %d)", i/4, op, v, sel, arg)
		switch op {
		case qopPush:
			if queued[v] {
				continue
			}
			k := clamp(queueKey(floor, sel, arg))
			key[v], queued[v] = k, true
			count++
			s.dist[v] = k
			s.push(v, k)
		case qopDecrease:
			if !queued[v] {
				continue
			}
			k := clamp(queueKey(floor, sel, arg))
			if !(k < key[v]) {
				if !(floor < key[v]) {
					continue
				}
				k = floor
			}
			key[v] = k
			s.dist[v] = k
			s.decrease(v, k)
		case qopPop:
			if count == 0 {
				continue
			}
			want := refMin()
			got := s.pop()
			if got != want {
				t.Fatalf("%s: pop = node %d (key %v), reference node %d (key %v)", what, got, s.dist[got], want, key[want])
			}
			queued[want] = false
			count--
			floor = key[want]
		case qopPeek:
			want := math.Inf(1)
			if count > 0 {
				want = key[refMin()]
				floor = want
			}
			if got := s.nextDist(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: nextDist = %v, reference %v", what, got, want)
			}
		}
		if s.empty() != (count == 0) {
			t.Fatalf("%s: empty = %v with %d queued in the reference", what, s.empty(), count)
		}
		for u := 0; u < n; u++ {
			if (s.pos[u] >= 0) != queued[u] {
				t.Fatalf("%s: node %d pos %d, reference queued %v", what, u, s.pos[u], queued[u])
			}
		}
	}
	// Odd-length scripts drain the queue through pops first; even ones
	// reset it with nodes still queued.
	if len(script)%2 == 1 {
		for count > 0 {
			want := refMin()
			if got := s.pop(); got != want {
				t.Fatalf("drain: pop = node %d, reference node %d", got, want)
			}
			queued[want] = false
			count--
		}
	}
	s.reset()
	if s.full != 0 || len(s.ties) != 0 || s.last != 0 {
		t.Fatalf("reset left full=%#x ties=%d last=%#x", s.full, len(s.ties), s.last)
	}
	for u := 0; u < n; u++ {
		if s.pos[u] != -1 || (queued[u] && !math.IsInf(s.dist[u], 1)) {
			t.Fatalf("reset left node %d pos %d dist %v", u, s.pos[u], s.dist[u])
		}
	}
	for b, h := range s.head {
		if h != -1 {
			t.Fatalf("reset left bucket %d headed by node %d", b, h)
		}
	}
}

// queueRec encodes one script record.
func queueRec(op, node, sel, arg byte) []byte { return []byte{op, node, sel, arg} }

// kernelQueueSeeds is the checked-in corpus of FuzzKernelQueue and the
// fixed scripts of TestKernelQueueScripts.
func kernelQueueSeeds() [][]byte {
	odd := []byte{0} // a trailing byte: the script drains before reset
	script := func(n byte, recs ...[]byte) []byte {
		out := []byte{n}
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	return [][]byte{
		// The rounding case: after node 5 pops at 1, nodes 3 and 7
		// arrive at exactly 1 (equal bits), and 3, the smaller id
		// than the node just popped, must pop first.
		script(8,
			queueRec(qopPush, 5, 7, 1), queueRec(qopPop, 0, 0, 0),
			queueRec(qopPush, 7, 0, 0), queueRec(qopPush, 3, 0, 0),
			queueRec(qopPop, 0, 0, 0), queueRec(qopPop, 0, 0, 0), odd),
		// A tie class sharing its bucket with a larger key: the refill
		// must hand all of it to bucket 0 and pop it in id order.
		script(12,
			queueRec(qopPush, 9, 7, 2), queueRec(qopPush, 2, 7, 2), queueRec(qopPush, 6, 7, 2),
			queueRec(qopPush, 4, 7, 3), queueRec(qopPush, 0, 7, 1), queueRec(qopPush, 11, 7, 2),
			queueRec(qopPop, 0, 0, 0), queueRec(qopPeek, 0, 0, 0), queueRec(qopPop, 0, 0, 0),
			queueRec(qopPop, 0, 0, 0), queueRec(qopPop, 0, 0, 0), queueRec(qopPop, 0, 0, 0)),
		// One-ulp and few-bit neighbours, +0 and subnormals, with
		// decreases across bucket boundaries.
		script(6,
			queueRec(qopPush, 1, 3, 9), queueRec(qopPush, 2, 3, 200), queueRec(qopPush, 3, 1, 0),
			queueRec(qopPush, 4, 2, 17), queueRec(qopDecrease, 2, 3, 3), queueRec(qopPop, 0, 0, 0),
			queueRec(qopPush, 0, 4, 0), queueRec(qopPeek, 0, 0, 0), queueRec(qopDecrease, 4, 1, 0),
			queueRec(qopPop, 0, 0, 0), queueRec(qopPop, 0, 0, 0), odd),
		// Wide exponent spread up to the largest finite magnitudes,
		// then a reset with nodes still queued.
		script(10,
			queueRec(qopPush, 8, 6, 1), queueRec(qopPush, 7, 6, 120), queueRec(qopPush, 6, 6, 255),
			queueRec(qopPush, 5, 5, 0), queueRec(qopPush, 4, 5, 1), queueRec(qopPush, 3, 6, 64),
			queueRec(qopPop, 0, 0, 0), queueRec(qopDecrease, 5, 6, 200), queueRec(qopPop, 0, 0, 0),
			queueRec(qopPeek, 0, 0, 0), queueRec(qopDecrease, 7, 0, 0), queueRec(qopPop, 0, 0, 0)),
		// Decrease onto the floor: a node leaves a high bucket for
		// bucket 0 and must pop before larger ids already there.
		script(16,
			queueRec(qopPush, 15, 7, 0), queueRec(qopPush, 1, 7, 3), queueRec(qopPop, 0, 0, 0),
			queueRec(qopPush, 14, 0, 0), queueRec(qopDecrease, 1, 0, 0), queueRec(qopPop, 0, 0, 0),
			queueRec(qopPop, 0, 0, 0), queueRec(qopPush, 0, 6, 250), queueRec(qopPush, 2, 5, 3), odd),
	}
}

// TestKernelQueueScripts runs the fixed seeds and a batch of random
// scripts through the queue reference check.
func TestKernelQueueScripts(t *testing.T) {
	for i, script := range kernelQueueSeeds() {
		t.Run(fmt.Sprintf("seed-%03d", i), func(t *testing.T) { checkQueueScript(t, script) })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		script := make([]byte, 1+4*(1+rng.Intn(120))+rng.Intn(2))
		rng.Read(script)
		// Bias toward pushes so queues grow past a few nodes.
		for j := 1; j+3 < len(script); j += 4 {
			if rng.Intn(3) == 0 {
				script[j] = qopPush
			}
		}
		checkQueueScript(t, script)
		if t.Failed() {
			t.Fatalf("random script %d: %v", i, script)
		}
	}
}

// FuzzKernelQueue fuzzes the kernel's radix heap against the reference:
// every pop must be the minimum (distance, id) entry, every peek its
// distance, under adversarial monotone keys.
func FuzzKernelQueue(f *testing.F) {
	for _, script := range kernelQueueSeeds() {
		f.Add(script)
	}
	f.Fuzz(checkQueueScript)
}
