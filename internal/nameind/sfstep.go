package nameind

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/labeled"
	"compactrouting/internal/searchtree"
)

// SFNIPhase tags the routing state of a scale-free name-independent
// packet (Theorem 1.1, Algorithms 3 + 4).
type SFNIPhase uint8

// The phases of the stepped Theorem 1.1 delivery.
const (
	// SFNIStart: freshly injected.
	SFNIStart SFNIPhase = iota
	// SFNIToBall: walking to a delegated packing ball's center
	// (Algorithm 4 line 5).
	SFNIToBall
	// SFNISearchDown / SFNISearchUp: search-tree round trip.
	SFNISearchDown
	SFNISearchUp
	// SFNIReturn: walking back from the ball center to the zooming
	// anchor (Algorithm 4 line 7).
	SFNIReturn
	// SFNIZoom: moving to the next zooming ancestor.
	SFNIZoom
	// SFNIFinal: labeled route to the found destination.
	SFNIFinal
)

// SFNIHeader is the Theorem 1.1 packet header factored for per-node
// stepping. Sub carries the underlying Theorem 1.2 walk.
type SFNIHeader struct {
	Name    int32
	Phase   SFNIPhase
	Level   int32
	Center  int32 // the zooming anchor u(Level)
	VTarget int32
	// UseBall selects the active search tree: the anchor's own tree or
	// the delegated packing ball (J, Idx).
	UseBall    bool
	J, Idx     int32
	Sub        labeled.SFHeader
	SubActive  bool
	Found      bool
	FoundLabel int32
}

// Bits returns the header's encoded size.
func (h SFNIHeader) Bits() int {
	n := 3 + bits.UvarintLen(uint64(h.Name)) + bits.UvarintLen(uint64(h.Level)) + 3
	n += bits.UvarintLen(uint64(h.Center+1)) + bits.UvarintLen(uint64(h.VTarget+1))
	if h.UseBall {
		n += bits.UvarintLen(uint64(h.J)) + bits.UvarintLen(uint64(h.Idx))
	}
	if h.SubActive {
		n += h.Sub.Bits()
	}
	if h.Found {
		n += bits.UvarintLen(uint64(h.FoundLabel))
	}
	return n
}

// PrepareHeader returns the initial header for a delivery to name.
func (s *ScaleFree) PrepareHeader(name int) (SFNIHeader, error) {
	if s.nm.NodeOf(name) < 0 {
		return SFNIHeader{}, fmt.Errorf("nameind: unknown name %d", name)
	}
	return SFNIHeader{Name: int32(name), Phase: SFNIStart}, nil
}

func (s *ScaleFree) underlyingSF() (*labeled.ScaleFree, error) {
	u, ok := s.under.(*labeled.ScaleFree)
	if !ok {
		return nil, fmt.Errorf("nameind: stepping requires a labeled.ScaleFree underlying scheme, have %T", s.under)
	}
	return u, nil
}

// sfBeginWalk arms an underlying walk toward graph node target.
func (s *ScaleFree) sfBeginWalk(h SFNIHeader, target int) (SFNIHeader, error) {
	u, err := s.underlyingSF()
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

// activeTree resolves the search tree the header points at.
func (s *ScaleFree) activeTree(h SFNIHeader) (*searchtree.Tree[int], error) {
	if h.UseBall {
		if h.J < 0 || int(h.J) >= len(s.ballTrees) || int(h.Idx) >= len(s.ballTrees[h.J]) {
			return nil, fmt.Errorf("nameind: bad ball tree (%d, %d)", h.J, h.Idx)
		}
		return s.ballTrees[h.J][h.Idx], nil
	}
	pos := s.h.PosInLevel(int(h.Center), int(h.Level))
	if pos < 0 || s.ownTrees[h.Level][pos] == nil {
		return nil, fmt.Errorf("nameind: no own tree at (%d, %d)", h.Level, h.Center)
	}
	return s.ownTrees[h.Level][pos], nil
}

// enterLevel decides how the anchor w searches its level: its own tree
// (start descending in place) or a delegated ball (walk to its center
// first). The anchor's self-name check happens here, matching the
// sequential loop.
func (s *ScaleFree) enterLevel(w int, h SFNIHeader) (SFNIHeader, bool, error) {
	if s.nm.NameOf(w) == int(h.Name) {
		return h, true, nil
	}
	pos := s.h.PosInLevel(w, int(h.Level))
	if pos < 0 {
		return h, false, fmt.Errorf("nameind: anchor %d not in Y_%d", w, h.Level)
	}
	if s.ownTrees[h.Level][pos] != nil {
		// J/Idx are only meaningful under UseBall; clear them so the
		// header matches its wire form (the codec omits them here).
		h.UseBall = false
		h.J, h.Idx = 0, 0
		h.Phase = SFNISearchDown
		h.VTarget = int32(w)
		return h, false, nil
	}
	hl := s.hLinks[h.Level][pos]
	h.UseBall = true
	h.J, h.Idx = int32(hl.j), int32(hl.idx)
	h.Phase = SFNIToBall
	var err error
	h, err = s.sfBeginWalk(h, s.ballTrees[hl.j][hl.idx].Center)
	return h, false, err
}

// Step performs one forwarding decision of the Theorem 1.1 scheme at
// node w.
func (s *ScaleFree) Step(w int, h SFNIHeader) (next int, nh SFNIHeader, arrived bool, err error) {
	und, err := s.underlyingSF()
	if err != nil {
		return 0, h, false, err
	}
	name := int(h.Name)
	for guard := 0; guard < 8+5*(s.h.TopLevel()+1); guard++ {
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
			if h.Phase == SFNIFinal {
				if s.nm.NameOf(w) != name {
					return 0, h, false, fmt.Errorf("nameind: final leg ended at %d, wrong node", w)
				}
				return 0, h, true, nil
			}
		}
		switch h.Phase {
		case SFNIStart:
			h.Level = 0
			h.Center = int32(w)
			var done bool
			if h, done, err = s.enterLevel(w, h); err != nil || done {
				return 0, h, done, err
			}
		case SFNIToBall:
			// Landed at the delegated ball's center: search it.
			h.Phase = SFNISearchDown
			h.VTarget = int32(w)
		case SFNISearchDown:
			t, err := s.activeTree(h)
			if err != nil {
				return 0, h, false, err
			}
			p := t.Pos(w)
			if p < 0 {
				return 0, h, false, fmt.Errorf("nameind: node %d outside active search tree", w)
			}
			child, label, found := t.Step(p, name)
			if child >= 0 {
				if h, err = s.sfBeginWalk(h, t.Member(child)); err != nil {
					return 0, h, false, err
				}
				continue
			}
			if found {
				h.Found = true
				h.FoundLabel = int32(label)
			}
			h.Phase = SFNISearchUp
			if w == t.Center {
				continue
			}
			if h, err = s.sfBeginWalk(h, t.Member(t.Parent(p))); err != nil {
				return 0, h, false, err
			}
		case SFNISearchUp:
			t, err := s.activeTree(h)
			if err != nil {
				return 0, h, false, err
			}
			if w != t.Center {
				p := t.Pos(w)
				if p < 0 {
					return 0, h, false, fmt.Errorf("nameind: node %d outside active search tree", w)
				}
				if h, err = s.sfBeginWalk(h, t.Member(t.Parent(p))); err != nil {
					return 0, h, false, err
				}
				continue
			}
			if h.UseBall && w != int(h.Center) {
				// Back from the delegated ball to the anchor
				// (Algorithm 4 line 7).
				h.Phase = SFNIReturn
				if h, err = s.sfBeginWalk(h, int(h.Center)); err != nil {
					return 0, h, false, err
				}
				continue
			}
			if !h.Found && int(h.Level) >= s.h.TopLevel() {
				return 0, h, false, fmt.Errorf("nameind: name %d not found at the top level", name)
			}
			h = s.resolveLevel(h)
			target := int(h.VTarget)
			if h.Phase == SFNIZoom && target == w {
				// Anchor unchanged: search the next level in place.
				var done bool
				if h, done, err = s.enterLevel(w, h); err != nil || done {
					return 0, h, done, err
				}
				continue
			}
			if h, err = s.sfBeginWalk(h, target); err != nil {
				return 0, h, false, err
			}
		case SFNIReturn:
			// Landed back at the anchor.
			if !h.Found && int(h.Level) >= s.h.TopLevel() {
				return 0, h, false, fmt.Errorf("nameind: name %d not found at the top level", name)
			}
			h = s.resolveLevel(h)
			target := int(h.VTarget)
			if h.Phase == SFNIZoom && target == w {
				var done bool
				if h, done, err = s.enterLevel(w, h); err != nil || done {
					return 0, h, done, err
				}
				continue
			}
			if h, err = s.sfBeginWalk(h, target); err != nil {
				return 0, h, false, err
			}
		case SFNIZoom:
			// Landed on the next anchor u(Level): search its level.
			var done bool
			if h, done, err = s.enterLevel(w, h); err != nil || done {
				return 0, h, done, err
			}
		case SFNIFinal:
			return 0, h, false, fmt.Errorf("nameind: final phase without active walk at %d", w)
		}
	}
	return 0, h, false, fmt.Errorf("nameind: step at %d did not converge", w)
}

// resolveLevel decides, at the anchor after a completed search round
// trip, whether to finish (found) or climb (not found). The returned
// header's Phase is SFNIFinal or SFNIZoom with VTarget set; the caller
// arms the walk.
func (s *ScaleFree) resolveLevel(h SFNIHeader) SFNIHeader {
	if h.Found {
		h.Phase = SFNIFinal
		h.VTarget = int32(s.nm.NodeOf(int(h.Name)))
		return h
	}
	nextAnchor := s.h.ZoomStep(int(h.Center), int(h.Level))
	h.Level++
	h.Center = int32(nextAnchor)
	h.Phase = SFNIZoom
	h.VTarget = int32(nextAnchor)
	return h
}
