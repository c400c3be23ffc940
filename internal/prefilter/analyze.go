package prefilter

import (
	"fmt"
	"strings"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/htmldom"
	"flashextract/internal/sheet"
)

// Admissible is implemented by DSL leaf programs (region expressions,
// position-pair map functions, predicates) that can state a necessary
// byte-level condition on the raw document for the node to contribute a
// non-error result. Leaves that cannot are treated as True (no
// information), which is always sound.
type Admissible interface {
	AdmissionCond() Cond
}

// CondOf derives the admission condition of a core program tree: a
// condition that holds on every document for which the tree produces at
// least one region. Combinators compose structurally — Merge is a union
// of alternatives, Map/Filter/Pair need all their parts to cooperate —
// and leaves answer through the Admissible interface.
func CondOf(p core.Program) Cond {
	switch v := p.(type) {
	case *core.MergeProgram:
		// Merge yields a region iff some argument does.
		c := False()
		for _, arg := range v.Args {
			c = Or(c, CondOf(arg))
		}
		return c
	case *core.MapProgram:
		// Map F S yields a region only if S yields one and F maps it
		// without error (Map is strict: any F error empties the field).
		return And(CondOf(v.S), CondOf(v.F))
	case *core.FilterBoolProgram:
		// A surviving element needs S to produce it and B to accept it.
		return And(CondOf(v.S), CondOf(v.B))
	case *core.FilterIntProgram:
		return CondOf(v.S)
	case *core.PairProgram:
		return And(CondOf(v.A), CondOf(v.B))
	}
	if a, ok := p.(Admissible); ok {
		return a.AdmissionCond()
	}
	return True()
}

// Filter is the compiled admission test for one saved schema program.
type Filter struct {
	fields []fieldCond
	// hazard validates the raw bytes against the substrate parser: a
	// document the parser would reject must be admitted so the full run
	// path emits the same structured parse-error record it always did.
	hazard func(string) error
}

type fieldCond struct {
	color string
	cond  Cond
}

// FromSchemaProgram derives the admission filter of a compiled program
// for documents of the given type ("text", "web" or "sheet"). Only
// ⊥-rooted fields (no ancestor) participate: a descendant field's program
// runs over its ancestor's regions, so when every root field is empty the
// whole extraction cascades to empty regardless of what the descendants'
// own conditions would admit — dropping them makes the filter strictly
// more selective at no soundness cost. A document is admitted when any
// root field's condition is satisfiable on it; root fields whose programs
// expose no analyzable structure contribute True and make the filter
// admit everything (still sound, never faster).
func FromSchemaProgram(q *engine.SchemaProgram, docType string) (*Filter, error) {
	f := &Filter{}
	switch docType {
	case "text":
		// textlang documents are total: every string parses.
	case "web":
		f.hazard = htmldom.Scan
	case "sheet":
		f.hazard = sheet.CheckCSV
	default:
		return nil, fmt.Errorf("prefilter: unknown document type %q", docType)
	}
	for _, fi := range q.Schema.Fields() {
		fp := q.Fields[fi.Color()]
		if fp == nil {
			return nil, fmt.Errorf("prefilter: field %s has no program", fi.Color())
		}
		if fp.Ancestor != nil {
			continue // rides on its ancestor's regions; see above
		}
		cond := True()
		if p := fp.CoreProgram(); p != nil {
			cond = CondOf(p)
			cond.normalize()
		}
		f.fields = append(f.fields, fieldCond{color: fi.Color(), cond: cond})
	}
	return f, nil
}

// Admit reports whether the document could produce at least one region
// for at least one field. Admit(doc) == false guarantees a full run on
// doc yields the empty extraction result for every field. Field
// conditions are checked before the substrate-hazard scan: an admitted
// document never pays for the scan (the full path reparses anyway), and
// the census behind mask atoms is built lazily so a substring miss
// rejects without any O(n) pass beyond the search itself.
func (f *Filter) Admit(doc string) bool {
	if f == nil {
		return true
	}
	cs := &census{doc: doc}
	for _, fc := range f.fields {
		if fc.cond.admits(doc, cs) {
			return true
		}
	}
	if f.hazard != nil && f.hazard(doc) != nil {
		return true // would not parse: take the full path for its error record
	}
	return false
}

// Selective reports whether the filter can reject anything at all: at
// least one field condition is not the vacuous True. Callers use it to
// log when prefiltering is a no-op for a given program.
func (f *Filter) Selective() bool {
	if f == nil {
		return false
	}
	for _, fc := range f.fields {
		if !fc.cond.IsTrue() {
			return true
		}
	}
	return false
}

// String renders the per-field conditions for debugging and tests.
func (f *Filter) String() string {
	var b strings.Builder
	for _, fc := range f.fields {
		fmt.Fprintf(&b, "%s: ", fc.color)
		switch {
		case fc.cond.IsTrue():
			b.WriteString("true")
		case fc.cond.IsFalse():
			b.WriteString("false")
		default:
			for i, cj := range fc.cond.Disj {
				if i > 0 {
					b.WriteString(" | ")
				}
				fmt.Fprintf(&b, "(len>=%d", cj.MinLen)
				for _, a := range cj.Atoms {
					b.WriteString(" & ")
					b.WriteString(a.String())
				}
				b.WriteString(")")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
