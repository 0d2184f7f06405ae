package nameind

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/labeled"
	"compactrouting/internal/searchtree"
)

// NIPhase tags the routing state of a simple name-independent packet.
type NIPhase uint8

// Algorithm 3's phases as carried in the packet header.
const (
	// NIPhaseStart: freshly injected; the first node starts level 0.
	NIPhaseStart NIPhase = iota
	// NIPhaseSearchDown: descending the current level's search tree.
	NIPhaseSearchDown
	// NIPhaseSearchUp: returning to the tree center.
	NIPhaseSearchUp
	// NIPhaseZoom: moving to the next zooming ancestor u(i+1).
	NIPhaseZoom
	// NIPhaseFinal: labeled route to the found destination.
	NIPhaseFinal
)

// NIHeader is the packet header of the Theorem 1.4 scheme factored for
// per-node stepping. Walks between search-tree nodes, zoom moves and
// the final leg are themselves steps of the underlying labeled
// scheme, whose header rides along in Sub — the composition Section
// 3.1.1 describes ("the endpoints keep each other's routing label").
type NIHeader struct {
	Name    int32
	Phase   NIPhase
	Level   int32
	Center  int32 // u(Level), the current search tree's center
	VTarget int32 // the tree node (or zoom/final target) being walked toward
	// Sub is the underlying labeled walk toward VTarget (or the found
	// label in the final phase); SubActive marks a walk in progress.
	Sub        labeled.SimpleHeader
	SubActive  bool
	Found      bool
	FoundLabel int32
}

// Bits returns the header's encoded size: the name and per-phase state
// plus the underlying header when a sub-walk is active.
func (h NIHeader) Bits() int {
	n := 3 + bits.UvarintLen(uint64(h.Name)) + bits.UvarintLen(uint64(h.Level)) + 2
	n += bits.UvarintLen(uint64(h.Center+1)) + bits.UvarintLen(uint64(h.VTarget+1))
	if h.SubActive {
		n += h.Sub.Bits()
	}
	if h.Found {
		n += bits.UvarintLen(uint64(h.FoundLabel))
	}
	return n
}

// PrepareHeader returns the initial header for a delivery to name.
func (s *Simple) PrepareHeader(name int) (NIHeader, error) {
	if s.nm.NodeOf(name) < 0 {
		return NIHeader{}, fmt.Errorf("nameind: unknown name %d", name)
	}
	return NIHeader{Name: int32(name), Phase: NIPhaseStart}, nil
}

// underlying returns the concrete simple labeled scheme (the Step
// composition needs its header type).
func (s *Simple) underlying() (*labeled.Simple, error) {
	u, ok := s.under.(*labeled.Simple)
	if !ok {
		return nil, fmt.Errorf("nameind: stepping requires a labeled.Simple underlying scheme, have %T", s.under)
	}
	return u, nil
}

// beginWalk arms a sub-walk toward the label of graph node target.
func (s *Simple) beginWalk(h NIHeader, target int) (NIHeader, error) {
	u, err := s.underlying()
	if err != nil {
		return h, err
	}
	sub, err := u.PrepareHeader(s.under.LabelOf(target))
	if err != nil {
		return h, err
	}
	h.Sub = sub
	h.SubActive = true
	h.VTarget = int32(target)
	return h, nil
}

// Step performs one forwarding decision of Algorithm 3 at node w,
// reading only w's compiled state and the header. Multiple local phase
// transitions may resolve before a hop is emitted.
func (s *Simple) Step(w int, h NIHeader) (next int, nh NIHeader, arrived bool, err error) {
	und, err := s.underlying()
	if err != nil {
		return 0, h, false, err
	}
	name := int(h.Name)
	for guard := 0; guard < 8+4*(s.h.TopLevel()+1); guard++ {
		// An active sub-walk is stepped first; tree/zoom/final logic
		// resumes when it lands on its target.
		if h.SubActive {
			hop, sub, done, err := und.Step(w, h.Sub)
			if err != nil {
				return 0, h, false, err
			}
			if !done {
				h.Sub = sub
				return hop, h, false, nil
			}
			h.SubActive = false
			if w != int(h.VTarget) {
				return 0, h, false, fmt.Errorf("nameind: sub-walk landed at %d, target %d", w, h.VTarget)
			}
			if h.Phase == NIPhaseFinal {
				if s.nm.NameOf(w) != name {
					return 0, h, false, fmt.Errorf("nameind: final leg ended at %d, wrong node", w)
				}
				return 0, h, true, nil
			}
		}
		switch h.Phase {
		case NIPhaseStart:
			h.Phase = NIPhaseSearchDown
			h.Level = 0
			h.Center = int32(w)
			h.VTarget = int32(w)
		case NIPhaseSearchDown:
			if w == int(h.Center) && s.nm.NameOf(w) == name {
				return 0, h, true, nil // every node knows its own name
			}
			t := s.treeAt(int(h.Level), int(h.Center))
			if t == nil {
				return 0, h, false, fmt.Errorf("nameind: no search tree at (%d, %d)", h.Level, h.Center)
			}
			p := t.Pos(w)
			if p < 0 {
				return 0, h, false, fmt.Errorf("nameind: node %d outside search tree (%d, %d)", w, h.Level, h.Center)
			}
			child, label, found := t.Step(p, name)
			if child >= 0 {
				if h, err = s.beginWalk(h, t.Member(child)); err != nil {
					return 0, h, false, err
				}
				continue
			}
			if found {
				h.Found = true
				h.FoundLabel = int32(label)
			}
			h.Phase = NIPhaseSearchUp
			if w == int(h.Center) {
				continue
			}
			if h, err = s.beginWalk(h, t.Member(t.Parent(p))); err != nil {
				return 0, h, false, err
			}
		case NIPhaseSearchUp:
			if w != int(h.Center) {
				t := s.treeAt(int(h.Level), int(h.Center))
				if t == nil {
					return 0, h, false, fmt.Errorf("nameind: no search tree at (%d, %d)", h.Level, h.Center)
				}
				p := t.Pos(w)
				if p < 0 {
					return 0, h, false, fmt.Errorf("nameind: node %d outside search tree (%d, %d)", w, h.Level, h.Center)
				}
				if h, err = s.beginWalk(h, t.Member(t.Parent(p))); err != nil {
					return 0, h, false, err
				}
				continue
			}
			if h.Found {
				h.Phase = NIPhaseFinal
				dst := s.nm.NodeOf(name)
				if h, err = s.beginWalk(h, dst); err != nil {
					return 0, h, false, err
				}
				continue
			}
			// Not found: climb the zooming sequence (Algorithm 3 line 5).
			if int(h.Level) >= s.h.TopLevel() {
				return 0, h, false, fmt.Errorf("nameind: name %d not found at the top level", name)
			}
			nextAnchor := s.h.ZoomStep(w, int(h.Level))
			h.Level++
			if nextAnchor == w {
				h.Phase = NIPhaseSearchDown
				h.Center = int32(w)
				h.VTarget = int32(w)
				continue
			}
			h.Phase = NIPhaseZoom
			if h, err = s.beginWalk(h, nextAnchor); err != nil {
				return 0, h, false, err
			}
		case NIPhaseZoom:
			// Sub-walk landed on u(Level): start its search.
			h.Phase = NIPhaseSearchDown
			h.Center = int32(w)
			h.VTarget = int32(w)
		case NIPhaseFinal:
			// Only reachable with an exhausted sub-walk, handled above.
			return 0, h, false, fmt.Errorf("nameind: final phase without active walk at %d", w)
		}
	}
	return 0, h, false, fmt.Errorf("nameind: step at %d did not converge", w)
}

// treeAt returns the search tree of center y at level i (nil when y is
// not a level-i net point).
func (s *Simple) treeAt(i, y int) *searchtree.Tree[int] {
	if i < 0 || i > s.h.TopLevel() {
		return nil
	}
	pos := s.h.PosInLevel(y, i)
	if pos < 0 {
		return nil
	}
	return s.trees[i][pos]
}
