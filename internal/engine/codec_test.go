package engine_test

import (
	"strings"
	"testing"

	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/schema"
	"flashextract/internal/textlang"
	"flashextract/internal/weblang"
)

// noCodecLang wraps a Language without implementing ProgramCodec.
type noCodecLang struct{ engine.Language }

func learnSimpleProgram(t *testing.T) (*engine.SchemaProgram, *textlang.Document) {
	t.Helper()
	doc := textlang.NewDocument("k: 1\nq: 22\nz: 333\n")
	sch := schema.MustParse(`Seq([rec] Struct(Key: [k] String, Val: [v] Int))`)
	s := engine.NewSession(doc, sch)
	examples := map[string][]region.Region{}
	lines := []struct{ key, val string }{{"k", "1"}, {"q", "22"}}
	for _, l := range lines {
		kr, _ := doc.FindRegion(l.key+":", 0)
		examples["rec"] = append(examples["rec"], doc.Region(kr.Start, kr.Start+len(l.key)+2+len(l.val)))
		examples["k"] = append(examples["k"], doc.Region(kr.Start, kr.Start+len(l.key)))
		vr, _ := doc.FindRegion(l.val, 0)
		examples["v"] = append(examples["v"], vr)
	}
	for _, fi := range sch.Fields() {
		for _, r := range examples[fi.Color()] {
			if err := s.AddPositive(fi.Color(), r); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.Learn(fi.Color()); err != nil {
			t.Fatalf("learning %s: %v", fi.Color(), err)
		}
		if err := s.Commit(fi.Color()); err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	return q, doc
}

func TestSaveSchemaProgramRoundTrip(t *testing.T) {
	q, doc := learnSimpleProgram(t)
	data, err := engine.SaveSchemaProgram(q, doc.Language())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := engine.LoadSchemaProgram(data, doc.Language())
	if err != nil {
		t.Fatal(err)
	}
	inst1, _, err := q.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	inst2, _, err := loaded.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	if inst1.String() != inst2.String() {
		t.Fatalf("loaded program diverges:\n%s\nvs\n%s", inst1, inst2)
	}
}

func TestSaveSchemaProgramWithoutCodec(t *testing.T) {
	q, doc := learnSimpleProgram(t)
	if _, err := engine.SaveSchemaProgram(q, noCodecLang{doc.Language()}); err == nil {
		t.Fatal("language without codec accepted")
	}
	if _, err := engine.LoadSchemaProgram([]byte("{}"), noCodecLang{doc.Language()}); err == nil {
		t.Fatal("load without codec accepted")
	}
}

func TestSaveSchemaProgramForeignLanguage(t *testing.T) {
	// A text program saved under the web language would produce an
	// artifact that language cannot load back, so Save must refuse it.
	q, _ := learnSimpleProgram(t)
	web := weblang.MustNewDocument("<html><body><p>k: 1</p></body></html>")
	if _, err := engine.SaveSchemaProgram(q, web.Language()); err == nil {
		t.Fatal("text program saved under the web language")
	}
}

func TestSaveSchemaProgramIncomplete(t *testing.T) {
	doc := textlang.NewDocument("x")
	sch := schema.MustParse(`Seq([a] String)`)
	q := &engine.SchemaProgram{Schema: sch, Fields: map[string]*engine.FieldProgram{}}
	if _, err := engine.SaveSchemaProgram(q, doc.Language()); err == nil {
		t.Fatal("incomplete program accepted")
	}
}

func TestLoadSchemaProgramBadBody(t *testing.T) {
	doc := textlang.NewDocument("x")
	artifact := `{"format":"flashextract-program/1","schema":"Seq([a] String)",
		"fields":[{"color":"a","kind":"seq","body":{"op":"nope"}}]}`
	if _, err := engine.LoadSchemaProgram([]byte(artifact), doc.Language()); err == nil {
		t.Fatal("undecodable body accepted")
	}
	artifact2 := `{"format":"flashextract-program/1","schema":"Seq([a] String)",
		"fields":[{"color":"a","kind":"weird","body":{}}]}`
	if _, err := engine.LoadSchemaProgram([]byte(artifact2), doc.Language()); err == nil {
		t.Fatal("unknown kind accepted")
	}
	artifact3 := `{"format":"flashextract-program/1","schema":"Seq([a] Struct(X: [x] String))",
		"fields":[{"color":"x","ancestor":"zzz","kind":"region","body":{}}]}`
	if _, err := engine.LoadSchemaProgram([]byte(artifact3), doc.Language()); err == nil {
		t.Fatal("unknown ancestor accepted")
	}
}

func TestLoadedProgramAncestorsPreserved(t *testing.T) {
	q, doc := learnSimpleProgram(t)
	data, err := engine.SaveSchemaProgram(q, doc.Language())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ancestor": "rec"`) {
		t.Fatalf("artifact does not record the ancestor relation:\n%s", data)
	}
	loaded, err := engine.LoadSchemaProgram(data, doc.Language())
	if err != nil {
		t.Fatal(err)
	}
	fp := loaded.Fields["k"]
	if fp.Ancestor == nil || fp.Ancestor.Color() != "rec" {
		t.Fatalf("loaded ancestor = %v", fp.Ancestor)
	}
}
