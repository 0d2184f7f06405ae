package snapshot

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/schemes"
)

// EncodeScheme serializes one compiled scheme under its registry name
// (internal/schemes). Name-independent schemes embed their underlying
// labeled scheme first, so one blob restores the whole stack.
func EncodeScheme(w *bits.Writer, name string, impl any) error {
	e, err := schemes.Lookup(name)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return e.EncodeSnapshot(w, impl)
}

// DecodeScheme restores one scheme from its blob stream against an
// already-rebuilt graph and oracle. No counted scheme constructor runs:
// every path goes through the Restore* codecs.
func DecodeScheme(r *bits.Reader, name string, g *graph.Graph, a metric.Distancer) (any, error) {
	e, err := schemes.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	inst, err := e.Restore(r, g, a)
	if err != nil {
		return nil, err
	}
	return inst.Impl, nil
}
