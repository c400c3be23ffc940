package engine

import (
	"encoding/json"
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/schema"
)

// ProgramCodec is implemented by languages whose programs can be
// serialized to portable JSON artifacts and reloaded later — the paper's
// §2 workflow of keeping "the data and its associated data extraction
// program" to re-run on similar documents. The core algebra encodes and
// decodes every operator; a language only decodes its own leaves.
type ProgramCodec interface {
	DecodeLeaf(spec core.ProgramSpec) (core.Program, error)
}

// decodeContext reconstructs the programs of a language's CoreSeq and
// CoreRegion adapters.
func decodeContext(codec ProgramCodec) core.DecodeContext {
	return core.DecodeContext{Leaf: codec.DecodeLeaf, Less: RegionLess}
}

// fieldProgramSpec is the serialized form of one field extraction program.
type fieldProgramSpec struct {
	Color    string          `json:"color"`
	Ancestor string          `json:"ancestor,omitempty"` // empty means ⊥
	Kind     string          `json:"kind"`               // "seq" or "region"
	Body     json.RawMessage `json:"body"`
}

// schemaProgramSpec is the serialized form of a schema extraction program.
type schemaProgramSpec struct {
	Format string             `json:"format"`
	Schema string             `json:"schema"`
	Fields []fieldProgramSpec `json:"fields"`
}

// schemaProgramFormat identifies the artifact format version.
const schemaProgramFormat = "flashextract-program/1"

// SaveSchemaProgram serializes a complete schema extraction program. The
// language of the document it was learned on must implement ProgramCodec,
// and every field program must be a CoreSeq or CoreRegion whose body that
// language can decode back: a program of another language is refused.
func SaveSchemaProgram(q *SchemaProgram, lang Language) ([]byte, error) {
	codec, ok := lang.(ProgramCodec)
	if !ok {
		return nil, fmt.Errorf("engine: language %T does not support program serialization", lang)
	}
	if err := q.Complete(); err != nil {
		return nil, err
	}
	dc := decodeContext(codec)
	spec := schemaProgramSpec{Format: schemaProgramFormat, Schema: q.Schema.String()}
	for _, fi := range q.Schema.Fields() {
		fp := q.Fields[fi.Color()]
		fs := fieldProgramSpec{Color: fi.Color(), Kind: "region"}
		if fp.Ancestor != nil {
			fs.Ancestor = fp.Ancestor.Color()
		}
		if fp.Seq != nil {
			fs.Kind = "seq"
		}
		p := fp.CoreProgram()
		if p == nil {
			return nil, fmt.Errorf("engine: serializing field %s: not a core-algebra program", fi.Color())
		}
		body, err := core.MarshalProgram(p)
		if err == nil {
			_, err = dc.UnmarshalProgram(body)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: serializing field %s: %w", fi.Color(), err)
		}
		fs.Body = body
		spec.Fields = append(spec.Fields, fs)
	}
	return json.MarshalIndent(spec, "", "  ")
}

// LoadSchemaProgram reconstructs a schema extraction program from its
// serialized form, ready to Run on any document of the language.
func LoadSchemaProgram(data []byte, lang Language) (*SchemaProgram, error) {
	codec, ok := lang.(ProgramCodec)
	if !ok {
		return nil, fmt.Errorf("engine: language %T does not support program serialization", lang)
	}
	var spec schemaProgramSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	if spec.Format != schemaProgramFormat {
		return nil, fmt.Errorf("engine: unsupported program format %q", spec.Format)
	}
	m, err := schema.Parse(spec.Schema)
	if err != nil {
		return nil, fmt.Errorf("engine: embedded schema: %w", err)
	}
	dc := decodeContext(codec)
	q := &SchemaProgram{Schema: m, Fields: map[string]*FieldProgram{}}
	for _, fs := range spec.Fields {
		fi := m.FieldByColor(fs.Color)
		if fi == nil {
			return nil, fmt.Errorf("engine: program references unknown field %q", fs.Color)
		}
		fp := &FieldProgram{Field: fi}
		if fs.Ancestor != "" {
			fp.Ancestor = m.FieldByColor(fs.Ancestor)
			if fp.Ancestor == nil {
				return nil, fmt.Errorf("engine: program references unknown ancestor %q", fs.Ancestor)
			}
		}
		if fs.Kind != "seq" && fs.Kind != "region" {
			return nil, fmt.Errorf("engine: unknown field program kind %q", fs.Kind)
		}
		p, err := dc.UnmarshalProgram(fs.Body)
		if err != nil {
			return nil, fmt.Errorf("engine: loading field %s: %w", fs.Color, err)
		}
		if fs.Kind == "seq" {
			fp.Seq = CoreSeq{p}
		} else {
			fp.Reg = CoreRegion{p}
		}
		q.Fields[fs.Color] = fp
	}
	if err := q.Complete(); err != nil {
		return nil, err
	}
	return q, nil
}
