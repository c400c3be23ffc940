package weblang

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/poslang"
	"flashextract/internal/xpath"
)

// This file implements program serialization for Lweb (see core.Encode).

// EncodeProgram serializes an XPaths node-sequence expression.
func (p xpathsProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "web.xpaths", Attrs: map[string]string{"path": p.path.String()}}, nil
}

// EncodeProgram serializes an N2 XPath expression.
func (p xpathRegionProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "web.xpath", Attrs: map[string]string{"path": p.path.String()}}, nil
}

// DecodeLeaf implements engine.ProgramCodec: it reconstructs Lweb leaf
// programs.
func (lang) DecodeLeaf(spec core.ProgramSpec) (core.Program, error) {
	if p, ok, err := poslang.Web.Decode(spec); ok {
		return p, err
	}
	switch spec.Op {
	case "web.xpaths", "web.xpath":
		path, err := xpath.Parse(spec.Attrs["path"])
		if err != nil {
			return nil, err
		}
		if spec.Op == "web.xpaths" {
			return xpathsProg{path: path}, nil
		}
		return xpathRegionProg{path: path}, nil
	default:
		return nil, fmt.Errorf("weblang: unknown leaf operator %q", spec.Op)
	}
}
