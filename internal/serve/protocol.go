// Package serve is the long-lived extraction service of the repository:
// the learn-once/serve-many end state of §7 of the paper, where extraction
// programs synthesized from examples are named, versioned, and applied at
// scale by a persistent process instead of a one-shot CLI run.
//
// The server speaks an NDJSON request/response protocol — one JSON frame
// per line — over stdin/stdout (Server.Serve) and over HTTP (POST /rpc on
// the admin endpoint). On startup it emits a ready frame carrying the
// protocol identifier; every subsequent response echoes the id of the
// request that caused it, and every failure is a structured error frame,
// never a process exit. The protocol schema is flashextract-serve/v1,
// documented in EXPERIMENTS.md.
//
// Its core is a program registry (see Registry): saved program artifacts
// loaded from a directory by naming convention, hot-reloadable while
// requests are in flight, each compiled once at load and shared by every
// request that runs it.
// Extraction itself runs through the same internal/batch worker pool as
// `flashextract batch`, so scan_batch output is byte-identical to the
// one-shot path and the chaos, metrics, and trace plumbing of the batch
// runtime work unchanged inside the persistent process.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"flashextract/internal/batch"
)

// Protocol is the protocol identifier carried by the ready frame.
const Protocol = "flashextract-serve/v1"

// MaxFrameBytes bounds one NDJSON frame (a request line). Frames beyond it
// abort the stream with an error — a defense against unbounded buffering,
// not a per-document limit (documents ride inside the frame).
const MaxFrameBytes = 32 << 20

// The request ops of the protocol.
const (
	// OpScan runs a program over one inline document and returns its
	// record.
	OpScan = "scan"
	// OpScanBatch runs a program over a set of documents (inline and/or
	// server-side globs) through the batch worker pool and returns the
	// full record stream.
	OpScanBatch = "scan_batch"
	// OpExplain runs a program over one inline document like scan, but
	// with execution capture on: the response carries, alongside the
	// record, one flashextract-explain/v1 frame mapping every extracted
	// leaf to its source byte range and operator path.
	OpExplain = "explain"
	// OpListPrograms lists the registry catalog.
	OpListPrograms = "list_programs"
	// OpReload rescans the program directory, atomically swapping the
	// catalog; in-flight requests finish on the version they resolved.
	OpReload = "reload"
	// OpClose drains in-flight requests and shuts the stream down; its
	// response is the last frame the server writes.
	OpClose = "close"
	// OpReady is the op of the unsolicited frame the server emits on
	// startup (responses only — never a valid request op).
	OpReady = "ready"
)

// The error codes of an error frame. Request-level failures use the first
// group; per-document extraction failures surfacing through scan map the
// batch failure taxonomy into the second.
const (
	// CodeBadRequest: the frame was not a well-formed request (invalid
	// JSON, wrong field types, missing required fields, bad values).
	CodeBadRequest = "bad_request"
	// CodeUnknownOp: the op is not part of the protocol.
	CodeUnknownOp = "unknown_op"
	// CodeUnknownProgram: no catalog entry has the requested name.
	CodeUnknownProgram = "unknown_program"
	// CodeVersionMismatch: the name exists but not at the requested
	// version.
	CodeVersionMismatch = "version_mismatch"
	// CodeOverloaded: admitting the request would exceed the server's
	// bounded in-flight document budget; retry later.
	CodeOverloaded = "overloaded"
	// CodeDeadline: the per-request deadline or run budget was exhausted.
	CodeDeadline = "deadline"
	// CodeCancelled: the server was shutting down or the request's context
	// was cancelled mid-run.
	CodeCancelled = "cancelled"
	// CodeReloadFailed: the program directory rescan failed; the previous
	// catalog stays live.
	CodeReloadFailed = "reload_failed"
	// CodeInternal: the batch invocation itself failed (a runtime bug, not
	// a document failure).
	CodeInternal = "internal"
)

// Doc is one inline document of a scan_batch request.
type Doc struct {
	// Name labels the document in its output record.
	Name string `json:"name"`
	// Content is the document's raw text.
	Content string `json:"content"`
}

// Request is one protocol frame from client to server.
type Request struct {
	// ID is echoed on the response, correlating frames on a multiplexed
	// stream.
	ID string `json:"id"`
	// Op selects the operation (one of the Op* constants).
	Op string `json:"op"`
	// Program references a registry entry: "name" resolves the newest
	// version, "name@V" pins one. Required for scan and scan_batch.
	Program string `json:"program"`
	// DocName labels a scan's document in its record ("doc" when empty).
	DocName string `json:"doc_name"`
	// Content is the scan document's raw text.
	Content string `json:"content"`
	// Docs are the inline documents of a scan_batch.
	Docs []Doc `json:"docs"`
	// Globs are server-side paths/patterns of a scan_batch, expanded,
	// deduplicated, and sorted exactly like the batch CLI's positional
	// arguments; the resulting file sources follow the inline Docs.
	Globs []string `json:"globs"`
	// TimeoutMS bounds each document's run in milliseconds; 0 means the
	// server's default, negative is rejected.
	TimeoutMS int64 `json:"timeout_ms"`
	// Ordered selects input-order record emission for scan_batch; nil
	// means true (deterministic output byte streams by default).
	Ordered *bool `json:"ordered"`
}

// ProgramInfo is one catalog entry of a list_programs response.
type ProgramInfo struct {
	// Name and Version identify the entry; Ref is "name@version".
	Name    string `json:"name"`
	Version int    `json:"version"`
	Ref     string `json:"ref"`
	// DocType is the document type the program runs on.
	DocType string `json:"doc_type"`
	// Digest is the hex SHA-256 of the artifact bytes.
	Digest string `json:"digest"`
}

// Summary is the deterministic slice of a batch summary carried by a
// scan_batch response (wall-clock fields are deliberately absent so
// transcripts are byte-stable).
type Summary struct {
	Docs             int `json:"docs"`
	Errors           int `json:"errors"`
	Skipped          int `json:"skipped"`
	Retries          int `json:"retries"`
	PrefilterSkipped int `json:"prefilter_skipped,omitempty"`
}

// FrameError is the structured error of a failed request.
type FrameError struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
}

// Response is one protocol frame from server to client. Exactly one is
// written per request frame, plus the unsolicited ready frame on startup.
type Response struct {
	// ID echoes the request id ("" for the ready frame and for frames that
	// were not valid JSON).
	ID string `json:"id"`
	// Op echoes the request op (omitted when the frame was malformed).
	Op string `json:"op,omitempty"`
	// OK distinguishes results from error frames.
	OK bool `json:"ok"`
	// Protocol is the protocol identifier (ready frames only).
	Protocol string `json:"protocol,omitempty"`
	// ProgramCount is the catalog size (ready and reload frames).
	ProgramCount int `json:"program_count,omitempty"`
	// Added/Removed count catalog changes (reload frames).
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
	// Programs is the catalog listing (list_programs frames).
	Programs []ProgramInfo `json:"programs,omitempty"`
	// Record is the scan's single batch record, byte-for-byte as the batch
	// runtime emitted it.
	Record json.RawMessage `json:"record,omitempty"`
	// Records is the scan_batch record stream in emission order; joining
	// with newlines reproduces the batch CLI's output bytes.
	Records []json.RawMessage `json:"records,omitempty"`
	// Explains is the provenance sidecar of an explain op: one
	// flashextract-explain/v1 frame per record, aligned with Record /
	// Records order.
	Explains []json.RawMessage `json:"explains,omitempty"`
	// Summary aggregates a scan_batch run.
	Summary *Summary `json:"summary,omitempty"`
	// Error describes the failure (error frames only).
	Error *FrameError `json:"error,omitempty"`
}

// errorResponse builds an error frame.
func errorResponse(id, op, code, msg string) Response {
	return Response{ID: id, Op: op, Error: &FrameError{Code: code, Message: msg}}
}

// codeForKind maps the batch failure taxonomy of a scan's record onto a
// frame error code: budget exhaustion is the request's deadline,
// cancellation is the server draining, and every other kind keeps its
// batch name under a doc_ prefix (the record itself carries the detail).
func codeForKind(kind string) string {
	switch kind {
	case batch.KindBudget:
		return CodeDeadline
	case batch.KindCancelled:
		return CodeCancelled
	default:
		return "doc_" + kind
	}
}

// decodeRequest parses one frame line into a Request. Failures are
// reported as crafted messages (never the JSON decoder's own text) so
// protocol transcripts are stable across toolchain versions. A well-formed
// request is decoded once; only a frame that does not decode into a
// Request, or is null, is decoded again generically to tell the failures
// apart.
func decodeRequest(line []byte) (Request, *FrameError) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil || bytes.Equal(bytes.TrimSpace(line), []byte("null")) {
		var probe any
		if json.Unmarshal(line, &probe) != nil {
			return Request{}, &FrameError{Code: CodeBadRequest, Message: "serve: frame is not valid JSON"}
		}
		obj, ok := probe.(map[string]any)
		if !ok {
			return Request{}, &FrameError{Code: CodeBadRequest, Message: "serve: frame is not a JSON object"}
		}
		// Salvage the id (when it at least is a string) so the error frame
		// still correlates.
		if id, ok := obj["id"].(string); ok {
			req.ID = id
		}
		return req, &FrameError{Code: CodeBadRequest, Message: "serve: frame fields have the wrong types"}
	}
	if req.Op == "" {
		return req, &FrameError{Code: CodeBadRequest, Message: "serve: frame is missing the op field"}
	}
	if req.TimeoutMS < 0 {
		return req, &FrameError{Code: CodeBadRequest, Message: fmt.Sprintf("serve: negative timeout_ms %d", req.TimeoutMS)}
	}
	return req, nil
}
