package labeled

import (
	"fmt"

	"compactrouting/internal/bits"
)

// SimpleHeader is the packet header of the simple labeled scheme,
// factored out so the scheme can run as a pure per-node step function
// (e.g. under walk.Run, the message-passing model): the
// destination label, the current intermediate net point x = v(i), and
// its level. Target < 0 means "no target acquired".
type SimpleHeader struct {
	Label  int32
	Target int32
	Level  int32
}

// Bits returns the header's encoded size: two node ids, a level, and a
// 2-bit phase tag (matching headerBits).
func (h SimpleHeader) Bits() int {
	n := 2 + bits.UvarintLen(uint64(h.Level))
	n += bits.UvarintLen(uint64(h.Label))
	n += bits.UvarintLen(uint64(h.Target + 1))
	return n
}

// PrepareHeader returns the initial header for a delivery to the node
// labeled label.
func (s *Simple) PrepareHeader(label int) (SimpleHeader, error) {
	if label < 0 || label >= s.g.N() {
		return SimpleHeader{}, fmt.Errorf("labeled: label %d out of range", label)
	}
	return SimpleHeader{Label: int32(label), Target: -1}, nil
}

// Step performs one forwarding decision at node w, reading only w's
// routing table and the header. It returns the neighbor to forward to
// and the updated header, or arrived == true when w is the
// destination.
func (s *Simple) Step(w int, h SimpleHeader) (next int, nh SimpleHeader, arrived bool, err error) {
	label := int(h.Label)
	if s.nt.Label(w) == label {
		return 0, h, true, nil
	}
	if h.Target < 0 || int(h.Target) == w {
		// (Re)acquire: minimal hit level at w.
		i, e, ok := s.minimalHit(w, label)
		if !ok {
			return 0, h, false, fmt.Errorf("labeled: node %d has no ring hit for label %d", w, label)
		}
		if int(e.x) == w {
			return 0, h, false, fmt.Errorf("labeled: self target at %d level %d", w, i)
		}
		h.Target, h.Level = e.x, int32(i)
	}
	// Ranges within a level are disjoint, so the target's entry is the
	// only one whose range can hold the label: looking it up by x is
	// findEntry's answer whenever that answer is the target.
	e := findTarget(s.rings[w][h.Level], h.Target)
	if e == nil || label < int(e.lo) || label > int(e.hi) {
		return 0, h, false, fmt.Errorf("labeled: relay %d lost target %d at level %d", w, h.Target, h.Level)
	}
	return int(e.next), h, false, nil
}
