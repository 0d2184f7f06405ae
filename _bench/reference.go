package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"

	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/sim"
)

// expected is the reference answer for one sample pair.
type expected struct {
	Hops    int     `json:"hops"`
	Cost    float64 `json:"cost"`
	Optimal float64 `json:"optimal"`
}

// referenceOut is what the reference process reports.
type referenceOut struct {
	Bound   float64    `json:"bound"`
	Answers []expected `json:"answers"`
}

// refScheme is a scheme compiled outside the engine, routed by
// sim.RouteOnce.
type refScheme struct {
	route func(src, dst int) sim.Result
	lite  func(src, dst int) sim.LiteResult
	bound float64
}

// step runs one named construction stage; the traced run passes one
// that records a span around it.
type step func(name string, fn func() error) error

func direct(_ string, fn func() error) error { return fn() }

// compileReference builds the workload's scheme with the same
// parameters the engine uses (eps 0.25, and for name-independent the
// naming the engine derives from its seed, seed+2) on oracle a.
func compileReference(w workload, g *graph.Graph, a metric.Distancer, seed int64, run step) (*refScheme, error) {
	var under *labeled.Simple
	err := run("labeled.build", func() (err error) {
		under, err = labeled.NewSimple(g, a, eps)
		return err
	})
	if err != nil {
		return nil, err
	}
	switch w.scheme {
	case "simple-labeled":
		r := sim.SimpleLabeledRouter{S: under}
		return &refScheme{
			route: func(src, dst int) sim.Result { return sim.RouteOnce(g, r, src, under.LabelOf(dst), 0) },
			lite:  func(src, dst int) sim.LiteResult { return sim.RouteLite(g, r, src, under.LabelOf(dst), 0) },
			bound: under.StretchBound(),
		}, nil
	case "name-independent":
		var ni *nameind.Simple
		err := run("nameind.build", func() (err error) {
			ni, err = nameind.NewSimple(g, a, nameind.RandomNaming(g.N(), seed+2), under, eps)
			return err
		})
		if err != nil {
			return nil, err
		}
		r := sim.NameIndependentRouter{S: ni}
		nm := ni.Naming()
		maxHops := 256 * g.N()
		return &refScheme{
			route: func(src, dst int) sim.Result { return sim.RouteOnce(g, r, src, nm.NameOf(dst), maxHops) },
			lite:  func(src, dst int) sim.LiteResult { return sim.RouteLite(g, r, src, nm.NameOf(dst), maxHops) },
			bound: ni.StretchBound(),
		}, nil
	default:
		return nil, fmt.Errorf("no reference for scheme %q", w.scheme)
	}
}

// runReference is the reference role: rebuild the inputs from the seed,
// compile the scheme on a dense APSP of its own (on every backend: the
// repo's backends are bit-identical by contract, so the lazy workload
// is checked against dense answers too) and answer the sample with
// sim.RouteOnce.
func runReference(w workload, seed int64) (*referenceOut, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	g, err := buildGraph(in.n, in.edges)
	if err != nil {
		return nil, err
	}
	a := metric.NewAPSP(g)
	ref, err := compileReference(w, g, a, seed, direct)
	if err != nil {
		return nil, err
	}
	out := &referenceOut{Bound: ref.bound}
	for _, p := range in.sample {
		res := ref.route(p[0], p[1])
		if res.Err != nil {
			return nil, fmt.Errorf("reference route %d->%d: %w", p[0], p[1], res.Err)
		}
		out.Answers = append(out.Answers, expected{Hops: len(res.Path) - 1, Cost: res.Cost, Optimal: a.Dist(p[0], p[1])})
	}
	return out, nil
}

// child runs this binary in another role and waits for it; the role's
// memory never counts towards the measuring process's peak RSS.
func child(role string, w workload, seed int64, extra ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"--role", role, "--workload", w.name, "--seed", fmt.Sprint(seed)}, extra...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", role, err)
	}
	return stdout.Bytes(), nil
}

func referenceAnswers(w workload, seed int64) (*referenceOut, error) {
	data, err := child("reference", w, seed)
	if err != nil {
		return nil, err
	}
	var out referenceOut
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	if len(out.Answers) != sampleSize {
		return nil, fmt.Errorf("reference answered %d of %d sample pairs", len(out.Answers), sampleSize)
	}
	return &out, nil
}

// verification is the outcome of answering the sample through the
// protocol under test.
type verification struct {
	Mismatches  int     `json:"mismatches"`
	OverBound   int     `json:"over_bound"`
	StretchMean float64 `json:"stretch_mean"`
	StretchMax  float64 `json:"stretch_max"`
	First       string  `json:"first_mismatch,omitempty"`
}

func (v verification) ok() bool { return v.Mismatches == 0 && v.OverBound == 0 }

// verify sends the sample through one client, batch pairs per
// operation, and compares every answer field for field with the
// reference. Stretch is cost over the reference optimum.
func verify(c client, sample [][2]int, batch int, ref *referenceOut) (verification, error) {
	var got []answer
	for i := 0; i < len(sample); i += batch {
		j := min(i+batch, len(sample))
		var err error
		if got, err = c.op(sample[i:j], got); err != nil {
			return verification{}, err
		}
	}
	var v verification
	stretches := make([]float64, 0, len(sample))
	for i, a := range got {
		e := ref.Answers[i]
		if !a.ok || a.hops != e.Hops || a.cost != e.Cost || a.optimal != e.Optimal {
			v.Mismatches++
			if v.First == "" {
				v.First = fmt.Sprintf("pair %d->%d: got ok=%v hops=%d cost=%v opt=%v, want hops=%d cost=%v opt=%v",
					sample[i][0], sample[i][1], a.ok, a.hops, a.cost, a.optimal, e.Hops, e.Cost, e.Optimal)
			}
			continue
		}
		s := 1.0
		if e.Optimal > 0 {
			s = e.Cost / e.Optimal
		}
		if s > ref.Bound*(1+1e-12) || math.IsNaN(s) {
			v.OverBound++
		}
		stretches = append(stretches, s)
		v.StretchMax = max(v.StretchMax, s)
	}
	v.StretchMean = meanOrZero(stretches)
	return v, nil
}
