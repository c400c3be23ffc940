// Package flashextract is a framework for data extraction by examples,
// reproducing “FlashExtract: A Framework for Data Extraction by Examples”
// (Vu Le and Sumit Gulwani, PLDI 2014).
//
// A user describes the desired output with a schema of structure and
// sequence constructs over colored fields, then highlights a few example
// regions per field on the document. FlashExtract synthesizes an
// extraction program consistent with the examples in a domain-specific
// language for the document type (text file, webpage, or spreadsheet),
// runs it to highlight all other instances, and refines when the user adds
// positive or negative examples. The synthesizers are generated by a
// generic framework from an algebra of Map, Filter, Merge, and Pair
// operators (see internal/core).
//
// Quickstart:
//
//	doc := flashextract.NewTextDocument(fileContents)
//	sch := flashextract.MustParseSchema(`Seq([name] String)`)
//	s := flashextract.NewSession(doc, sch)
//	r, _ := doc.FindRegion("Be", 0)
//	s.AddPositive("name", r)
//	_, highlighted, err := s.Learn("name")   // inspect, refine, …
//	s.Commit("name")
//	instance, _ := s.Extract()
//	fmt.Println(flashextract.ToJSON(instance))
package flashextract

import (
	"context"
	"io"

	"flashextract/internal/batch"
	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/export"
	"flashextract/internal/htmldom"
	"flashextract/internal/region"
	"flashextract/internal/schema"
	"flashextract/internal/sheetlang"
	"flashextract/internal/textlang"
	"flashextract/internal/weblang"
)

// Region is a highlightable portion of a document (a pair of character
// positions, an HTML node or intra-node span, or a cell / cell range).
type Region = region.Region

// Schema is the output data schema (Fig. 4 of the paper).
type Schema = schema.Schema

// SchemaParseError is the positioned syntax error ParseSchema returns on
// malformed schema text; its Offset lets callers point at the exact byte.
type SchemaParseError = schema.ParseError

// LeafType is the atomic type of a leaf field.
type LeafType = schema.LeafType

// The atomic leaf types of the schema language.
const (
	String = schema.String
	Int    = schema.Int
	Float  = schema.Float
)

// Document is any document paired with its extraction DSL.
type Document = engine.Document

// Session is an interactive extraction session (§3 of the paper).
type Session = engine.Session

// Instance is an extracted instance of the output schema.
type Instance = engine.Instance

// SchemaProgram is a complete schema extraction program that can be re-run
// on other documents with similar formatting.
type SchemaProgram = engine.SchemaProgram

// FieldProgram is the extraction program of a single field.
type FieldProgram = engine.FieldProgram

// Highlighting maps field colors to their regions.
type Highlighting = engine.Highlighting

// SynthBudget bounds a synthesis call: a wall-clock deadline and a cap on
// candidate programs explored. Install it per session with
// Session.SetBudget, or per call with a context deadline on
// Session.LearnContext; zero fields mean unlimited.
type SynthBudget = core.SynthBudget

// PartialResult describes how a synthesis call ended with respect to its
// budget: whether it was truncated, why, and which phases stopped early.
// Session.LearnContext returns one per call.
type PartialResult = engine.PartialResult

// SessionStats aggregates a session's engine metrics: learn calls,
// candidates explored, partial results, per-phase latency, and document
// cache counters. See Session.Stats.
type SessionStats = engine.SessionStats

// TextDocument is a text file (the Ltext instantiation, §5.1).
type TextDocument = textlang.Document

// WebDocument is a parsed webpage (the Lweb instantiation, §5.2).
type WebDocument = weblang.Document

// SheetDocument is a spreadsheet (the Lsps instantiation, §5.3).
type SheetDocument = sheetlang.Document

// HTMLNode is a node of a parsed webpage's DOM.
type HTMLNode = htmldom.Node

// NodeHasClass returns a predicate selecting elements carrying the given
// CSS class, for use with WebDocument.FindNode and HTMLNode.FindAll.
func NodeHasClass(class string) func(*HTMLNode) bool {
	return func(n *HTMLNode) bool { return n.HasClass(class) }
}

// ParseSchema parses the textual schema syntax, e.g.
//
//	Seq([yellow] Struct(Analyte: [magenta] String, Mass: [violet] Int))
func ParseSchema(src string) (*Schema, error) { return schema.Parse(src) }

// MustParseSchema is ParseSchema for statically known schemas.
func MustParseSchema(src string) *Schema { return schema.MustParse(src) }

// NewTextDocument opens a text file for extraction.
func NewTextDocument(text string) *TextDocument { return textlang.NewDocument(text) }

// NewWebDocument parses an HTML page for extraction.
func NewWebDocument(html string) (*WebDocument, error) { return weblang.NewDocument(html) }

// NewSheetDocument loads a CSV-backed spreadsheet for extraction.
func NewSheetDocument(csv string) (*SheetDocument, error) { return sheetlang.FromCSV(csv) }

// NewSession starts an interactive extraction session for a document and
// an output schema.
func NewSession(doc Document, sch *Schema) *Session { return engine.NewSession(doc, sch) }

// ToJSON renders an extracted instance as JSON.
func ToJSON(in *Instance) string { return export.ToJSON(in) }

// ToXML renders an extracted instance as XML with the given root element.
func ToXML(root string, in *Instance) string { return export.ToXML(root, in) }

// ToCSV renders the flat relational view of an extracted instance.
func ToCSV(m *Schema, in *Instance) string { return export.ToCSV(m, in) }

// SaveProgram serializes a learned schema extraction program into a
// portable JSON artifact that can be stored alongside the extracted data
// and re-run later without examples.
func SaveProgram(q *SchemaProgram, doc Document) ([]byte, error) {
	return engine.SaveSchemaProgram(q, doc.Language())
}

// LoadProgram reconstructs a schema extraction program from its serialized
// form; doc supplies the target document type's DSL (the program itself is
// document-independent within the type).
func LoadProgram(data []byte, doc Document) (*SchemaProgram, error) {
	return engine.LoadSchemaProgram(data, doc.Language())
}

// BatchSource is one input document of a batch run: a name for its output
// record and a lazy reader of its raw content.
type BatchSource = batch.Source

// BatchOptions configures RunBatch: the saved program artifact, document
// type, worker count, per-document deadline, ordered-output mode, and the
// run-path switches (shortcut layers, chaos, self-checks, and the
// provenance sidecar, on when ProvenanceOut is set).
type BatchOptions = batch.Options

// BatchRecord is one NDJSON line of batch output: a per-document result or
// structured error.
type BatchRecord = batch.Record

// BatchSummary aggregates one batch run: documents processed, error
// records, skipped inputs, and whether the run was cancelled.
type BatchSummary = batch.Summary

// BatchFileSource is a BatchSource reading a file from disk.
func BatchFileSource(path string) BatchSource { return batch.FileSource(path) }

// BatchStringSource is a BatchSource over in-memory content.
func BatchStringSource(name, data string) BatchSource { return batch.StringSource(name, data) }

// RunBatch runs a saved extraction program (SaveProgram) over a collection
// of documents with a bounded worker pool, streaming one NDJSON record per
// document to out — the §2 workflow of re-running a learned program on
// whole collections of similar files, at serving scale. Every emitted line
// is valid JSON; per-document failures become structured error records
// rather than aborting the batch, and cancelling ctx drains gracefully.
func RunBatch(ctx context.Context, opts BatchOptions, sources []BatchSource, out io.Writer) (BatchSummary, error) {
	return batch.Run(ctx, opts, sources, out)
}
