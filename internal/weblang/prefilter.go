package weblang

import "flashextract/internal/prefilter"

// This file exposes Lweb programs to the batch prefilter. Position
// programs evaluate over entity-decoded text content concatenated across
// text nodes, so only the weakened (per-byte, entity-widened) conditions
// are sound there; XPath structure, by contrast, pins start tags and
// attribute literals that must appear in the raw HTML source.

// AdmissionCond: every selected node embeds the path's tags/attributes.
func (p xpathsProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondXPath(p.path)
}

// AdmissionCond: the path must select at least one node.
func (p xpathRegionProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondXPath(p.path)
}

// AdmissionCond: both span attributes must evaluate on the node's text.
func (p nodeSpanPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.And(prefilter.CondAttrHTML(p.p1), prefilter.CondAttrHTML(p.p2))
}

// AdmissionCond: a PosSeq position requires its regex pair to match the
// text content.
func (p *posSeqProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondRegexPairHTML(p.rr)
}

// AdmissionCond: the end attribute must evaluate on the text suffix.
func (p startPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondAttrHTML(p.p)
}

// AdmissionCond: the start attribute must evaluate on the text prefix.
func (p endPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.CondAttrHTML(p.p)
}

// AdmissionCond: both span attributes must evaluate on the text.
func (p spanPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.And(prefilter.CondAttrHTML(p.p1), prefilter.CondAttrHTML(p.p2))
}
