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
