package engine

import (
	"fmt"
	"strings"

	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// InstanceKind discriminates the shapes of a schema instance.
type InstanceKind int

// The instance shapes produced by Fill.
const (
	NullInstance InstanceKind = iota
	LeafInstance
	StructInstance
	SeqInstance
)

// Instance is an instance of the output schema, produced by Fill (Fig. 5).
type Instance struct {
	Kind InstanceKind
	// Elements holds the named element instances of a struct.
	Elements []NamedInstance
	// Items holds the element instances of a sequence.
	Items []*Instance
	// Region and Text are set for leaf instances.
	Region region.Region
	Text   string
	// Type is the leaf type for leaf instances.
	Type schema.LeafType
}

// NamedInstance is one named element of a struct instance.
type NamedInstance struct {
	Name  string
	Value *Instance
}

// IsNull reports whether the instance is ⊥.
func (in *Instance) IsNull() bool { return in == nil || in.Kind == NullInstance }

func (in *Instance) String() string {
	var b strings.Builder
	in.write(&b)
	return b.String()
}

func (in *Instance) write(b *strings.Builder) {
	switch {
	case in.IsNull():
		b.WriteString("⊥")
	case in.Kind == LeafInstance:
		fmt.Fprintf(b, "%q", in.Text)
	case in.Kind == StructInstance:
		b.WriteString("{")
		for i, e := range in.Elements {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.Name)
			b.WriteString(": ")
			e.Value.write(b)
		}
		b.WriteString("}")
	case in.Kind == SeqInstance:
		b.WriteString("[")
		for i, it := range in.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			it.write(b)
		}
		b.WriteString("]")
	}
}

// Fill generates a schema instance from a highlighting, per the semantics
// of Fig. 5, starting at the document's whole region.
func Fill(m *schema.Schema, cr Highlighting, whole region.Region) *Instance {
	f := &filler{cr: cr}
	if m.TopSeq != nil {
		return f.fillSeq(m.TopSeq, whole)
	}
	return f.fillStruct(m.TopStruct, whole)
}

func (f *filler) fillStruct(s *schema.Struct, r region.Region) *Instance {
	if r == nil {
		return &Instance{Kind: NullInstance}
	}
	out := &Instance{Kind: StructInstance}
	for _, e := range s.Elements {
		var v *Instance
		if e.Seq != nil {
			v = f.fillSeq(e.Seq, r)
		} else {
			v = f.fillField(e.Field, r)
		}
		out.Elements = append(out.Elements, NamedInstance{Name: e.Name, Value: v})
	}
	return out
}

func (f *filler) fillSeq(s *schema.Seq, r region.Region) *Instance {
	if r == nil {
		return &Instance{Kind: NullInstance}
	}
	out := &Instance{Kind: SeqInstance, Items: []*Instance{}}
	for _, sub := range f.subregions(r, s.Inner.Color) {
		out.Items = append(out.Items, f.fillField(s.Inner, sub))
	}
	return out
}

func (f *filler) fillField(fd *schema.Field, r region.Region) *Instance {
	if r == nil {
		return &Instance{Kind: NullInstance}
	}
	// Fig. 5's Subregion: the single nested region, or, if the
	// highlighting is inconsistent and holds several, the first.
	subs := f.subregions(r, fd.Color)
	if len(subs) == 0 {
		return &Instance{Kind: NullInstance}
	}
	sub := subs[0]
	if fd.IsLeaf() {
		return &Instance{Kind: LeafInstance, Region: sub, Text: sub.Value(), Type: fd.Leaf}
	}
	return f.fillStruct(fd.Struct, sub)
}
