package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flashextract/internal/batch"
	"flashextract/internal/docstore"
	"flashextract/internal/engine"
)

// Registry is the program catalog of the extraction server: named,
// versioned saved programs loaded from a directory, the learn-once/
// serve-many store of §7 of the paper.
//
// Artifacts follow the naming convention
//
//	<name>@<version>.<doctype>.json
//
// e.g. invoices@3.text.json — name [A-Za-z0-9_-]+, version a positive
// integer, doctype one of text/web/sheet. Load scans the directory and
// swaps the catalog atomically; entries whose bytes did not change keep
// their identity (and their compiled program and counters) across
// reloads, and an entry resolved before a reload stays runnable after it,
// so in-flight requests always finish on the version they resolved.
//
// Each entry holds the one program Load compiled from its artifact. No
// method writes a compiled program, so every request and batch worker
// shares it: Entry implements batch.ProgramSource.
type Registry struct {
	dir string

	mu      sync.RWMutex
	catalog map[string][]*Entry // name → entries, version ascending
}

// Entry is one catalog program: an immutable artifact, its compiled
// program and its serving counters. Entries remain valid after the
// catalog drops them — holders finish their runs on the old version.
type Entry struct {
	// Name, Version, and DocType come from the filename convention.
	Name    string
	Version int
	DocType string
	// Path is the artifact file the entry was loaded from.
	Path string
	// Digest is the hex SHA-256 of the artifact bytes.
	Digest string

	raw  []byte
	prog *engine.SchemaProgram

	// compiles counts artifact deserializations (Load's one); scans, docs,
	// and errs are the per-program serving counters surfaced by /programs.
	compiles atomic.Int64
	scans    atomic.Int64
	docs     atomic.Int64
	errs     atomic.Int64
}

// Errors distinguishing the two ways a program reference can miss, so the
// server can answer unknown_program vs version_mismatch.
var (
	ErrUnknownProgram  = fmt.Errorf("serve: unknown program")
	ErrVersionMismatch = fmt.Errorf("serve: version mismatch")
)

// NewRegistry creates a registry over a program directory; call Load
// before serving. The second parameter is unused.
func NewRegistry(dir string, _ int) *Registry {
	return &Registry{dir: dir, catalog: map[string][]*Entry{}}
}

// Dir returns the program directory the registry scans.
func (r *Registry) Dir() string { return r.dir }

// Load (re)scans the program directory and atomically swaps the catalog.
// Every discovered artifact is compiled once up front, so a corrupt file
// fails the whole load and the previous catalog stays live — a bad deploy
// never takes down serving. Unchanged entries (same name, version, and
// digest) keep their identity, so an unchanged artifact is compiled
// again only to validate it; Load reports how many entries were added
// and removed relative to the previous catalog.
func (r *Registry) Load() (added, removed int, err error) {
	if _, err := os.Stat(r.dir); err != nil {
		return 0, 0, fmt.Errorf("serve: program directory: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(r.dir, "*.json"))
	if err != nil {
		return 0, 0, fmt.Errorf("serve: scanning %s: %w", r.dir, err)
	}
	sort.Strings(names)
	// Filename-only pre-pass: catch convention violations and duplicate
	// references before paying for any compile.
	refs := map[string]string{}
	for _, path := range names {
		name, version, _, err := parseProgramFilename(filepath.Base(path))
		if err != nil {
			return 0, 0, err
		}
		ref := fmt.Sprintf("%s@%d", name, version)
		if prev, ok := refs[ref]; ok {
			return 0, 0, fmt.Errorf("serve: duplicate program %s (%s and %s)", ref, prev, path)
		}
		refs[ref] = path
	}
	next := map[string][]*Entry{}
	for _, path := range names {
		e, err := loadEntry(path)
		if err != nil {
			return 0, 0, err
		}
		next[e.Name] = append(next[e.Name], e)
	}
	for _, es := range next {
		sort.Slice(es, func(i, j int) bool { return es[i].Version < es[j].Version })
	}

	r.mu.Lock()
	prev := r.catalog
	// Preserve identity for unchanged artifacts (same name, version, and
	// digest) so their programs and counters survive the reload.
	for name, es := range next {
		for i, e := range es {
			for _, old := range prev[name] {
				if old.Version == e.Version && old.Digest == e.Digest {
					es[i] = old
				}
			}
		}
	}
	kept := map[*Entry]bool{}
	for _, es := range next {
		for _, e := range es {
			kept[e] = true
		}
	}
	for _, es := range prev {
		for _, e := range es {
			if !kept[e] {
				removed++
			}
		}
	}
	prevCount := 0
	for _, es := range prev {
		prevCount += len(es)
	}
	added = len(kept) - (prevCount - removed)
	r.catalog = next
	r.mu.Unlock()
	return added, removed, nil
}

// loadEntry parses and compiles one artifact file: filename convention,
// digest, and the program every run of the entry shares.
func loadEntry(path string) (*Entry, error) {
	name, version, docType, err := parseProgramFilename(filepath.Base(path))
	if err != nil {
		return nil, err
	}
	lang, err := batch.LanguageFor(docType)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", filepath.Base(path), err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading %s: %w", filepath.Base(path), err)
	}
	prog, err := engine.LoadSchemaProgram(raw, lang)
	if err != nil {
		return nil, fmt.Errorf("serve: compiling %s: %w", filepath.Base(path), err)
	}
	e := &Entry{
		Name: name, Version: version, DocType: docType, Path: path,
		Digest: docstore.Hash(raw).String(),
		raw:    raw, prog: prog,
	}
	e.compiles.Add(1)
	return e, nil
}

// parseProgramFilename splits "<name>@<version>.<doctype>.json".
func parseProgramFilename(base string) (name string, version int, docType string, err error) {
	fail := func() (string, int, string, error) {
		return "", 0, "", fmt.Errorf("serve: program file %q does not match <name>@<version>.<doctype>.json", base)
	}
	stem, ok := strings.CutSuffix(base, ".json")
	if !ok {
		return fail()
	}
	stem, docType, ok = cutLast(stem, ".")
	if !ok || docType == "" {
		return fail()
	}
	name, ver, ok := strings.Cut(stem, "@")
	if !ok || name == "" || strings.ContainsAny(name, ".@/\\") {
		return fail()
	}
	for _, c := range name {
		if !(c == '-' || c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return fail()
		}
	}
	version, aerr := strconv.Atoi(ver)
	if aerr != nil || version < 1 {
		return fail()
	}
	return name, version, docType, nil
}

// cutLast splits s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// Resolve looks a program reference up in the current catalog: "name"
// resolves the newest version, "name@V" pins one. Misses wrap
// ErrUnknownProgram or ErrVersionMismatch so the server can classify
// them. The returned entry stays runnable even if a reload later drops it
// from the catalog.
func (r *Registry) Resolve(ref string) (*Entry, error) {
	name, ver, pinned := strings.Cut(ref, "@")
	if name == "" {
		return nil, fmt.Errorf("%w: empty program reference", ErrUnknownProgram)
	}
	r.mu.RLock()
	es := r.catalog[name]
	r.mu.RUnlock()
	if len(es) == 0 {
		return nil, fmt.Errorf("%w %q", ErrUnknownProgram, name)
	}
	if !pinned {
		return es[len(es)-1], nil
	}
	v, err := strconv.Atoi(ver)
	if err != nil || v < 1 {
		return nil, fmt.Errorf("%w %q: bad version %q", ErrVersionMismatch, name, ver)
	}
	for _, e := range es {
		if e.Version == v {
			return e, nil
		}
	}
	have := make([]string, len(es))
	for i, e := range es {
		have[i] = strconv.Itoa(e.Version)
	}
	return nil, fmt.Errorf("%w: %s has versions %s, not %d", ErrVersionMismatch, name, strings.Join(have, ", "), v)
}

// List returns the catalog, sorted by name then version.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.catalog))
	for name := range r.catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Entry
	for _, name := range names {
		out = append(out, r.catalog[name]...)
	}
	return out
}

// Len returns the number of catalog entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, es := range r.catalog {
		n += len(es)
	}
	return n
}

// Ref returns the entry's canonical "name@version" reference.
func (e *Entry) Ref() string { return fmt.Sprintf("%s@%d", e.Name, e.Version) }

// Raw returns the artifact bytes (callers must not mutate them).
func (e *Entry) Raw() []byte { return e.raw }

// Info returns the entry's protocol listing.
func (e *Entry) Info() ProgramInfo {
	return ProgramInfo{Name: e.Name, Version: e.Version, Ref: e.Ref(),
		DocType: e.DocType, Digest: e.Digest}
}

// Compiles returns how many times the artifact has been deserialized:
// once, by the Load that created the entry, however many runs share it.
func (e *Entry) Compiles() int64 { return e.compiles.Load() }

// Program implements batch.ProgramSource: it returns the entry's compiled
// program, shared by every run of the entry.
func (e *Entry) Program() *engine.SchemaProgram { return e.prog }

// Scans / Docs / Errors return the entry's serving counters: requests that
// ran it, documents those runs processed, and error records among them.
func (e *Entry) Scans() int64  { return e.scans.Load() }
func (e *Entry) Docs() int64   { return e.docs.Load() }
func (e *Entry) Errors() int64 { return e.errs.Load() }

// noteScan records one run of the entry into its serving counters.
func (e *Entry) noteScan(docs, errs int64) {
	e.scans.Add(1)
	e.docs.Add(docs)
	e.errs.Add(errs)
}
