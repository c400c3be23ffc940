package engine

import (
	"encoding/json"
	"fmt"
	"slices"

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

// decodeContext reconstructs the field programs of a language.
func decodeContext(codec ProgramCodec) core.DecodeContext {
	return core.DecodeContext{Leaf: codec.DecodeLeaf, Less: RegionLess}
}

// fieldProgramSpec is the serialized form of one field extraction program.
type fieldProgramSpec struct {
	Color    string          `json:"color"`
	Ancestor string          `json:"ancestor,omitempty"` // empty means ⊥
	Kind     string          `json:"kind"`               // "seq" or "region", fixed by the schema
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
// and every field program's body must decode back in that language: a
// program of another language is refused.
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
		fs := fieldProgramSpec{Color: fi.Color(), Kind: fieldKind(fp)}
		if fp.Ancestor != nil {
			fs.Ancestor = fp.Ancestor.Color()
		}
		body, err := core.MarshalProgram(fp.P)
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
// serialized form, ready to Run on any document of the language. Each
// field's ancestor must be one of its ancestors in the embedded schema, and
// its kind the one the schema fixes for that ancestor.
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
			if !slices.Contains(fi.Ancestors(), fp.Ancestor) {
				return nil, fmt.Errorf("engine: field %s: %s is not one of its ancestors", fs.Color, fs.Ancestor)
			}
		}
		if fs.Kind != "seq" && fs.Kind != "region" {
			return nil, fmt.Errorf("engine: unknown field program kind %q", fs.Kind)
		}
		if want := fieldKind(fp); fs.Kind != want {
			return nil, fmt.Errorf("engine: field %s: kind %q relative to %s, want %q", fs.Color, fs.Kind, ancName(fp.Ancestor), want)
		}
		if fp.P, err = dc.UnmarshalProgram(fs.Body); err != nil {
			return nil, fmt.Errorf("engine: loading field %s: %w", fs.Color, err)
		}
		q.Fields[fs.Color] = fp
	}
	if err := q.Complete(); err != nil {
		return nil, err
	}
	return q, nil
}

// fieldKind is the serialized kind of fp: "seq" for a SeqRegion program,
// "region" for a Region program.
func fieldKind(fp *FieldProgram) string {
	if fp.IsSeq() {
		return "seq"
	}
	return "region"
}
