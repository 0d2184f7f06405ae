package nameind

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/searchtree"
)

// frozenLoop is Algorithm 3 as both schemes ran it before RouteToName
// and Explain became walks of Step: a sequential loop over a
// core.Trace that crosses each search-tree virtual edge, zoom move and
// final leg with one underlying RouteToLabel call, charging that
// route's header plus a fixed wrapper. It is kept as the reference the
// step walk is compared against (frozen_test.go).
type frozenLoop struct {
	*base
	// search is one level's Search procedure: trace positioned at u(i),
	// returns (label, found) and leaves the trace back at u(i).
	search func(tr *core.Trace, i, pos, name int) (int, bool, error)
}

func frozenSimple(s *Simple) *frozenLoop {
	f := &frozenLoop{base: s.base}
	f.search = func(tr *core.Trace, i, pos, name int) (int, bool, error) {
		return f.searchRoundTrip(tr, s.trees[i][pos], name)
	}
	return f
}

func frozenScaleFree(s *ScaleFree) *frozenLoop {
	f := &frozenLoop{base: s.base}
	// Algorithm 4: the anchor's own tree, or a round trip to the
	// delegated packing ball's center.
	f.search = func(tr *core.Trace, i, pos, name int) (int, bool, error) {
		if t := s.ownTrees[i][pos]; t != nil {
			return f.searchRoundTrip(tr, t, name)
		}
		y := tr.At()
		hl := s.hLinks[i][pos]
		t := s.ballTrees[hl.j][hl.idx]
		if err := f.routeToLabel(tr, f.under.LabelOf(t.Center)); err != nil {
			return 0, false, err
		}
		label, found, err := f.searchRoundTrip(tr, t, name)
		if err != nil {
			return 0, false, err
		}
		if err := f.routeToLabel(tr, f.under.LabelOf(y)); err != nil {
			return 0, false, err
		}
		return label, found, nil
	}
	return f
}

// wrapBits is the loop's name-independent header overhead on top of the
// underlying scheme's header.
func (f *frozenLoop) wrapBits() int {
	return f.nameBits + 2*f.idBits + bits.UvarintLen(uint64(f.h.TopLevel())) + 3
}

func (f *frozenLoop) walkVirtual(tr *core.Trace, to int) error {
	r, err := f.under.RouteToLabel(tr.At(), f.under.LabelOf(to))
	if err != nil {
		return fmt.Errorf("nameind: virtual edge to %d: %w", to, err)
	}
	tr.Header(r.MaxHeaderBits + f.wrapBits())
	return tr.Walk(r.Path)
}

func (f *frozenLoop) searchRoundTrip(tr *core.Trace, t *searchtree.Tree[int], name int) (int, bool, error) {
	if tr.At() != t.Center {
		return 0, false, fmt.Errorf("nameind: search must start at center %d, at %d", t.Center, tr.At())
	}
	data, found, trail := t.Search(name)
	for k := 1; k < len(trail); k++ {
		if err := f.walkVirtual(tr, trail[k]); err != nil {
			return 0, false, err
		}
	}
	for k := len(trail) - 2; k >= 0; k-- {
		if err := f.walkVirtual(tr, trail[k]); err != nil {
			return 0, false, err
		}
	}
	return data, found, nil
}

func (f *frozenLoop) routeToLabel(tr *core.Trace, label int) error {
	r, err := f.under.RouteToLabel(tr.At(), label)
	if err != nil {
		return err
	}
	tr.Header(r.MaxHeaderBits + f.wrapBits())
	return tr.Walk(r.Path)
}

// route is the frozen RouteToName (rec == nil) and Explain.
func (f *frozenLoop) route(src, name int, rec *Explanation) (*core.Route, error) {
	if src < 0 || src >= f.g.N() {
		return nil, fmt.Errorf("nameind: source %d out of range", src)
	}
	dst := f.nm.NodeOf(name)
	if dst < 0 {
		return nil, fmt.Errorf("nameind: unknown name %d", name)
	}
	tr := core.NewTrace(f.g, src)
	finish := func(label int, have bool) (*core.Route, error) {
		if have {
			before := tr.Cost()
			if err := f.routeToLabel(tr, label); err != nil {
				return nil, err
			}
			if rec != nil {
				rec.FinalCost = tr.Cost() - before
			}
		}
		r, err := tr.Finish(dst)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.Src, rec.Dst = src, dst
			rec.TotalCost = r.Cost
			rec.Optimal = f.a.Dist(src, dst)
		}
		return r, nil
	}
	for i := 0; i <= f.h.TopLevel(); i++ {
		ui := tr.At() // u(i)
		if f.nm.NameOf(ui) == name {
			return finish(0, false) // every node knows its own name
		}
		tr.Header(f.wrapBits())
		pos := f.h.PosInLevel(ui, i)
		if pos < 0 {
			return nil, fmt.Errorf("nameind: zooming reached %d which is not in Y_%d", ui, i)
		}
		before := tr.Cost()
		label, found, err := f.search(tr, i, pos, name)
		if err != nil {
			return nil, err
		}
		lt := LevelTrace{Level: i, SearchCost: tr.Cost() - before, Found: found}
		if found {
			if rec != nil {
				rec.Levels = append(rec.Levels, lt)
			}
			return finish(label, true)
		}
		if i < f.h.TopLevel() {
			if next := f.h.ZoomStep(ui, i); next != ui {
				before = tr.Cost()
				if err := f.routeToLabel(tr, f.under.LabelOf(next)); err != nil {
					return nil, err
				}
				lt.ZoomCost = tr.Cost() - before
			}
		}
		if rec != nil {
			rec.Levels = append(rec.Levels, lt)
		}
	}
	return nil, fmt.Errorf("nameind: name %d not found at the top level", name)
}

// explain is the frozen Explain.
func (f *frozenLoop) explain(src, name int) (*Explanation, error) {
	rec := &Explanation{}
	if _, err := f.route(src, name, rec); err != nil {
		return nil, err
	}
	return rec, nil
}
