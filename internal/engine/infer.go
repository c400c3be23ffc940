package engine

import (
	"context"
	"fmt"

	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// InferStructure synthesizes the extraction program of a non-leaf field
// without user examples, from the already-materialized highlighting of its
// direct child fields — the bottom-up workflow of §3 of the paper
// (“FlashExtract may be able to automatically infer the organization of
// the various leaf field instances”).
//
// The child instances are grouped by relative document order: the child
// with the most instances leads, every other instance joins the group of
// the nearest preceding leader instance, and the minimal region covering
// each group (via the document's Spanner) becomes a positive example for
// the struct field. The field program is then synthesized from those
// examples as usual and recorded, ready to Commit.
func (s *Session) InferStructure(color string) (*FieldProgram, []region.Region, error) {
	fi, err := s.field(color)
	if err != nil {
		return nil, nil, err
	}
	if fi.Field.IsLeaf() {
		return nil, nil, fmt.Errorf("engine: field %s is a leaf; structure inference applies to struct fields", color)
	}
	if s.materialized[color] {
		return nil, nil, fmt.Errorf("engine: field %s is already materialized", color)
	}
	spanner, ok := s.doc.(Spanner)
	if !ok {
		return nil, nil, fmt.Errorf("engine: document type %T does not support structure inference", s.doc)
	}
	var children []*schema.FieldInfo
	for _, other := range s.sch.Fields() {
		if other.Parent == fi {
			children = append(children, other)
		}
	}
	if len(children) == 0 {
		return nil, nil, fmt.Errorf("engine: field %s has no child fields", color)
	}
	instances := make([][]region.Region, len(children))
	leader := -1
	for i, child := range children {
		if !s.materialized[child.Color()] {
			return nil, nil, fmt.Errorf("engine: child field %s must be materialized before inferring %s", child.Color(), color)
		}
		instances[i] = s.cr[child.Color()]
		if len(instances[i]) == 0 {
			return nil, nil, fmt.Errorf("engine: child field %s has no instances", child.Color())
		}
		if leader < 0 || len(instances[i]) > len(instances[leader]) {
			leader = i
		}
	}

	spans, err := groupAndSpan(spanner, instances, leader)
	if err != nil {
		return nil, nil, err
	}
	// Run through the session's budgeted driver so the call is recorded in
	// SessionStats like any other synthesis call. The synthetic span
	// examples are not the user's recorded spec for the color, so the
	// inferred program is never reused by a later Learn.
	fp, pr, err := s.synthesize(context.Background(), fi, spans, nil)
	s.record(color, pr)
	delete(s.learnedEpoch, color)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: inferring %s: %w", color, err)
	}
	s.programs[color] = fp
	return fp, fp.run(s.doc, s.cr), nil
}

// groupAndSpan assigns every child instance to the group of the nearest
// preceding leader instance and folds each group into its covering region.
func groupAndSpan(spanner Spanner, instances [][]region.Region, leader int) ([]region.Region, error) {
	leaders := instances[leader]
	groups := make([]region.Region, len(leaders))
	for i, l := range leaders {
		groups[i] = l
	}
	for ci, rs := range instances {
		if ci == leader {
			continue
		}
		for _, r := range rs {
			idx := -1
			for j, l := range leaders {
				if l == r || l.Less(r) {
					idx = j
				} else {
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("engine: instance %s precedes every leader instance; cannot infer grouping", r)
			}
			joined, err := spanner.Span(groups[idx], r)
			if err != nil {
				return nil, err
			}
			groups[idx] = joined
		}
	}
	region.Sort(groups)
	return groups, nil
}
