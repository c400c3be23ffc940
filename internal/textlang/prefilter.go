package textlang

import "flashextract/internal/prefilter"

// This file exposes Ltext programs to the batch prefilter. Text documents
// are raw bytes and lines are byte subranges of them, so token evidence
// translates to exact substring/byte-class requirements on the document.

// AdmissionCond: a PosSeq position requires its regex pair to match.
func (p posSeqProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondRegexPair(p.rr)
}

// AdmissionCond: both position attributes must evaluate on the line.
func (p linePairProg) AdmissionCond() prefilter.Cond {
	return prefilter.And(prefilter.CondAttr(p.p1), prefilter.CondAttr(p.p2))
}

// AdmissionCond: the position attribute must evaluate on the line.
func (p linePosProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondAttr(p.p)
}

// AdmissionCond: the end attribute must evaluate on the suffix.
func (p startPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondAttr(p.p)
}

// AdmissionCond: the start attribute must evaluate on the prefix.
func (p endPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondAttr(p.p)
}

// AdmissionCond: both position attributes must evaluate on the region.
func (p regionPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.And(prefilter.CondAttr(p.p1), prefilter.CondAttr(p.p2))
}

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
