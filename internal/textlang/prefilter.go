package textlang

import "flashextract/internal/prefilter"

// This file exposes Ltext programs to the batch prefilter. Text documents
// are raw bytes and lines are byte subranges of them, so token evidence
// translates to exact substring/byte-class requirements on the document.

// AdmissionCond derives what a line must contain for the predicate to
// accept it. The Pred/Succ forms inspect a neighbouring line, which is
// still a byte subrange of the document, so the same evidence applies.
func (p linePred) AdmissionCond() prefilter.Cond {
	switch p.kind {
	case predTrue:
		return prefilter.True()
	case predContains, predPredContains, predSuccContains:
		if p.k == 0 {
			// "contains exactly zero matches" is satisfied by absence.
			return prefilter.True()
		}
		return prefilter.CondRegex(p.r)
	default:
		// StartsWith/EndsWith anchor the regex inside the subject line.
		return prefilter.CondRegex(p.r)
	}
}
