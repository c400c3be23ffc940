package engine

import (
	"context"
	"fmt"

	"flashextract/internal/core"
)

// RunCapturedContext is RunContext with execution provenance: in addition
// to the instance and highlighting it returns, per field color, the
// ExecCapture recording which operator subexpressions produced each of the
// field's regions. Captured runs bypass no consistency checks — the
// instance and highlighting are identical to an uncaptured run's (capture
// only observes operator outputs; see the provenance differential tests).
func (q *SchemaProgram) RunCapturedContext(ctx context.Context, doc Document) (*Instance, Highlighting, map[string]*core.ExecCapture, error) {
	if err := q.Complete(); err != nil {
		return nil, nil, nil, err
	}
	caps := map[string]*core.ExecCapture{}
	cr := Highlighting{}
	for _, fi := range q.Schema.Fields() {
		fp := q.Fields[fi.Color()]
		cap := core.NewExecCapture()
		caps[fi.Color()] = cap
		rs, err := fp.runCtx(ctx, doc, cr, cap)
		if err != nil {
			return nil, nil, nil, err
		}
		cr.Add(fi.Color(), rs...)
	}
	if err := cr.ConsistentWith(q.Schema); err != nil {
		return nil, nil, nil, fmt.Errorf("engine: extraction result inconsistent with schema: %w", err)
	}
	inst := Fill(q.Schema, cr, doc.WholeRegion())
	return inst, cr, caps, nil
}
