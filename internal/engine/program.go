package engine

import (
	"context"
	"fmt"
	"strings"

	"flashextract/internal/core"
	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// FieldProgram is a field extraction program (Def. 4): a pair of an
// ancestor field f′ (nil meaning ⊥) and either a SeqRegion program (when
// f′ is a sequence-ancestor of the field) or a Region program (when f′ is
// a structure-ancestor).
type FieldProgram struct {
	Field    *schema.FieldInfo
	Ancestor *schema.FieldInfo // nil = ⊥
	Seq      SeqRegionProgram  // non-nil iff Ancestor is a sequence-ancestor
	Reg      RegionProgram     // non-nil iff Ancestor is a structure-ancestor
}

func (fp *FieldProgram) String() string {
	anc := "⊥"
	if fp.Ancestor != nil {
		anc = fp.Ancestor.Color()
	}
	body := ""
	if fp.Seq != nil {
		body = fp.Seq.String()
	} else if fp.Reg != nil {
		body = fp.Reg.String()
	}
	return fmt.Sprintf("(%s, %s)", anc, body)
}

// run executes the field extraction program against the highlighting built
// so far (the body of the inner Run of Algorithm 1). A program failure on
// one ancestor region contributes no regions for that ancestor: sequence
// programs contribute an empty sequence, region programs the null
// instance.
func (fp *FieldProgram) run(doc Document, cr Highlighting) []region.Region {
	out, _ := fp.runCtx(context.Background(), doc, cr, nil)
	return out
}

// runCtx is run under a context: cancellation (or a tripped budget) aborts
// between ancestor regions with the context's error. A non-nil cap records
// execution provenance for the emitted regions of CoreSeq and CoreRegion
// programs; other programs run uncaptured.
func (fp *FieldProgram) runCtx(ctx context.Context, doc Document, cr Highlighting, cap *core.ExecCapture) ([]region.Region, error) {
	var inputs []region.Region
	if fp.Ancestor == nil {
		inputs = []region.Region{doc.WholeRegion()}
	} else {
		inputs = cr[fp.Ancestor.Color()]
	}
	bud := core.BudgetFrom(ctx)
	var out []region.Region
	for _, in := range inputs {
		if err := runErr(ctx, bud); err != nil {
			return nil, err
		}
		if fp.Seq != nil {
			var rs []region.Region
			var err error
			if cs, ok := fp.Seq.(CoreSeq); ok {
				rs, err = cs.extract(in, cap)
			} else {
				rs, err = fp.Seq.ExtractSeq(in)
			}
			if err == nil {
				out = append(out, rs...)
			}
		} else {
			var r region.Region
			var err error
			if rp, ok := fp.Reg.(CoreRegion); ok {
				r, err = rp.extract(in, cap)
			} else {
				r, err = fp.Reg.Extract(in)
			}
			if err == nil && r != nil {
				out = append(out, r)
			}
		}
	}
	region.Sort(out)
	return out, nil
}

// CoreProgram returns the core-algebra program behind the field's CoreSeq
// or CoreRegion adapter, or nil for any other program.
func (fp *FieldProgram) CoreProgram() core.Program {
	if cs, ok := fp.Seq.(CoreSeq); ok {
		return cs.P
	}
	if rp, ok := fp.Reg.(CoreRegion); ok {
		return rp.P
	}
	return nil
}

// runErr reports why an execution context no longer permits work: the
// context's own error when it is done, or a budget-exhaustion error when
// the per-run budget (deadline, cancellation) tripped.
func runErr(ctx context.Context, bud *core.Budget) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if bud.ExhaustedNow() {
		return fmt.Errorf("engine: run budget exhausted: %s", bud.Reason())
	}
	return nil
}

// SchemaProgram is a schema extraction program Q: a map from every field
// of the schema to its field extraction program.
type SchemaProgram struct {
	Schema *schema.Schema
	Fields map[string]*FieldProgram // keyed by field color
}

func (q *SchemaProgram) String() string {
	var b strings.Builder
	for _, fi := range q.Schema.Fields() {
		fp := q.Fields[fi.Color()]
		fmt.Fprintf(&b, "%-10s ← %s\n", fi.Color(), fp)
	}
	return b.String()
}

// Complete reports whether every schema field has a program.
func (q *SchemaProgram) Complete() error {
	for _, fi := range q.Schema.Fields() {
		if q.Fields[fi.Color()] == nil {
			return fmt.Errorf("engine: no extraction program for field %s [%s]", fi.Path, fi.Color())
		}
	}
	return nil
}

// Run executes the schema extraction program on a document (Algorithm 1):
// field programs run in top-down topological order, each updating the
// highlighting, and the resulting highlighting is turned into a schema
// instance by Fill. Run fails if the produced highlighting is inconsistent
// with the schema.
func (q *SchemaProgram) Run(doc Document) (*Instance, Highlighting, error) {
	return q.RunContext(context.Background(), doc)
}

// RunContext is Run under a context: cancellation, a context deadline, or
// a core.Budget installed with core.WithBudget abort the run cooperatively
// between field programs and between ancestor regions — the granularity at
// which extraction programs execute — so a batch runtime can bound each
// document's run without leaking work.
func (q *SchemaProgram) RunContext(ctx context.Context, doc Document) (*Instance, Highlighting, error) {
	inst, cr, _, err := q.runFields(ctx, doc, false)
	return inst, cr, err
}

// RunCapturedContext is RunContext with execution provenance: in addition
// to the instance and highlighting it returns, per field color, the
// ExecCapture recording which operator subexpressions produced each of the
// field's regions. Captured runs bypass no consistency checks — the
// instance and highlighting are identical to an uncaptured run's (capture
// only observes operator outputs; see the provenance differential tests).
func (q *SchemaProgram) RunCapturedContext(ctx context.Context, doc Document) (*Instance, Highlighting, map[string]*core.ExecCapture, error) {
	return q.runFields(ctx, doc, true)
}

// runFields is the body of Algorithm 1 shared by RunContext and
// RunCapturedContext; caps is nil unless capture is set.
func (q *SchemaProgram) runFields(ctx context.Context, doc Document, capture bool) (*Instance, Highlighting, map[string]*core.ExecCapture, error) {
	if err := q.Complete(); err != nil {
		return nil, nil, nil, err
	}
	var caps map[string]*core.ExecCapture
	if capture {
		caps = map[string]*core.ExecCapture{}
	}
	cr := Highlighting{}
	for _, fi := range q.Schema.Fields() {
		var cap *core.ExecCapture
		if capture {
			cap = core.NewExecCapture()
			caps[fi.Color()] = cap
		}
		rs, err := q.Fields[fi.Color()].runCtx(ctx, doc, cr, cap)
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
