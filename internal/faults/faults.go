// Package faults is the deterministic fault-injection layer of the
// serving stack. An Injector, armed from a seed, decides — purely as a
// function of (seed, site, key) — whether a named injection site fails
// for a given key (usually a document name), how many consecutive
// attempts a transient fault survives, and how long a slow-worker stall
// lasts. Because every decision is a hash of stable inputs, a chaos run
// is reproducible across processes, worker counts, and goroutine
// schedules: the same seed always faults the same documents in the same
// way, which is what makes the batch chaos differential (output with
// transient faults + retries == output without faults) enforceable in CI.
//
// Injection sites are compiled into the serving path (batch, engine,
// admin) behind nil-safe Injector methods, so the fault layer costs one
// nil check per site when chaos is off. Arm it via Options/context in
// code, or with the -chaos flag of `flashextract batch` and
// `flashextract serve`.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The named injection sites wired through the serving stack. Sites fall
// in two classes: transient sites (recoverable by retry or harmless to
// output) and destructive sites (which turn documents into structured
// error records and therefore change batch output).
const (
	// SiteDocRead fails document reads in the batch worker pool with a
	// transient error; the worker's bounded retry loop recovers it.
	SiteDocRead = "batch.doc_read"
	// SiteDocParse corrupts the document's raw bytes before substrate
	// parsing, producing a structured "parse" failure record. Destructive.
	SiteDocParse = "batch.doc_parse"
	// SiteWorkerSlow stalls a batch worker before it processes a
	// document — a scheduling perturbation that must not change output.
	SiteWorkerSlow = "batch.worker_slow"
	// SiteBudget trips the synthesis/run budget mid-learner or mid-run,
	// exercising the graceful-degradation path. Destructive.
	SiteBudget = "engine.budget"
	// SiteAdminWrite fails response writes on the admin HTTP endpoints
	// for the first attempts of each path; the server must survive and
	// later requests must succeed. Transient.
	SiteAdminWrite = "admin.write"
)

// DefaultSites are the sites armed by a bare "seed=N" spec: exactly the
// transient/output-neutral set, so a default chaos run must be
// byte-identical to a fault-free run (the chaos differential).
var DefaultSites = []string{SiteDocRead, SiteWorkerSlow}

// AllSites lists every known injection site, for spec validation.
var AllSites = []string{
	SiteDocRead, SiteDocParse, SiteWorkerSlow,
	SiteBudget, SiteAdminWrite,
}

// Fault is an injected failure. It is the error returned by
// Injector.Fail, distinguishable from organic failures via errors.As and
// classified transient or not for the retry layer.
type Fault struct {
	// Site is the injection site that produced the fault.
	Site string
	// Key identifies the faulted unit (document name, URL path, …).
	Key string
	// Attempt is the 1-based attempt number that failed.
	Attempt int
	// Transient reports that a later attempt for the same key succeeds.
	Transient bool
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "permanent"
	if f.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faults: injected %s fault at %s for %q (attempt %d)", kind, f.Site, f.Key, f.Attempt)
}

// IsTransient reports whether err is (or wraps) a transient injected
// fault, i.e. one that a bounded retry recovers.
func IsTransient(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Transient
}

// IsFault reports whether err is (or wraps) any injected fault.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// Injector decides fault injection deterministically from a seed. The
// zero value and the nil pointer are both disarmed: every method on a
// nil *Injector is a no-op, so injection sites need no conditionals.
type Injector struct {
	seed     int64
	rate     float64       // per-(site,key) fault probability
	failures int           // max consecutive transient failures per key
	delay    time.Duration // stall duration for SiteWorkerSlow
	sites    map[string]bool

	mu       sync.Mutex
	attempts map[string]int // consumed attempts per site\x00key
}

// Defaults for the tunable knobs of a spec.
const (
	DefaultRate     = 0.5
	DefaultFailures = 2
	DefaultDelay    = 2 * time.Millisecond
)

// New creates an injector for a seed with the default rate, transient
// failure count, stall delay, and DefaultSites armed.
func New(seed int64) *Injector {
	inj := &Injector{
		seed:     seed,
		rate:     DefaultRate,
		failures: DefaultFailures,
		delay:    DefaultDelay,
		sites:    map[string]bool{},
		attempts: map[string]int{},
	}
	for _, s := range DefaultSites {
		inj.sites[s] = true
	}
	return inj
}

// ParseSpec builds an injector from a comma-separated spec string:
//
//	seed=N[,rate=F][,failures=K][,delay=D][,sites=a;b;c]
//
// seed is required; sites are semicolon-separated site names (default
// DefaultSites, the transient/output-neutral set). Unknown keys and
// unknown site names are errors, so a typo never silently disarms chaos.
func ParseSpec(spec string) (*Injector, error) {
	var inj *Injector
	var sites []string
	seenSeed := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %w", v, err)
			}
			inj = New(n)
			seenSeed = true
		case "rate", "failures", "delay", "sites":
			if !seenSeed {
				return nil, fmt.Errorf("faults: spec must start with seed=N (got %q first)", part)
			}
			switch k {
			case "rate":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					return nil, fmt.Errorf("faults: bad rate %q (want 0..1)", v)
				}
				inj.rate = f
			case "failures":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faults: bad failures %q (want >= 1)", v)
				}
				inj.failures = n
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: bad delay %q: %v", v, err)
				}
				inj.delay = d
			case "sites":
				sites = strings.Split(v, ";")
			}
		default:
			return nil, fmt.Errorf("faults: unknown spec key %q", k)
		}
	}
	if inj == nil {
		return nil, fmt.Errorf("faults: spec %q missing required seed=N", spec)
	}
	if sites != nil {
		inj.sites = map[string]bool{}
		for _, s := range sites {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			known := false
			for _, a := range AllSites {
				if s == a {
					known = true
					break
				}
			}
			if !known {
				return nil, fmt.Errorf("faults: unknown site %q (known: %s)", s, strings.Join(AllSites, ", "))
			}
			inj.sites[s] = true
		}
	}
	return inj, nil
}

// Seed returns the injector's seed.
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// Sites returns the armed site names, sorted.
func (i *Injector) Sites() []string {
	if i == nil {
		return nil
	}
	out := make([]string, 0, len(i.sites))
	for s := range i.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Rate returns the per-(site,key) fault probability.
func (i *Injector) Rate() float64 {
	if i == nil {
		return 0
	}
	return i.rate
}

// String renders a spec that round-trips through ParseSpec, for logs and
// chaos reports.
func (i *Injector) String() string {
	if i == nil {
		return ""
	}
	return fmt.Sprintf("seed=%d,rate=%g,failures=%d,delay=%s,sites=%s",
		i.seed, i.rate, i.failures, i.delay, strings.Join(i.Sites(), ";"))
}

// Armed reports whether a site is armed.
func (i *Injector) Armed(site string) bool {
	return i != nil && i.sites[site]
}

// Hit reports the deterministic fault decision for (site, key): true
// when the site is armed and the seeded hash of the pair falls under the
// rate. It is pure — no state is consumed — so callers can probe it any
// number of times and in any order.
func (i *Injector) Hit(site, key string) bool {
	if i == nil || !i.sites[site] {
		return false
	}
	return hash01(i.hash(site, key)) < i.rate
}

// Fail consumes one attempt at (site, key) and returns an injected
// transient *Fault while attempts remain, nil afterwards. The number of
// failing attempts — between 1 and the injector's failures knob — is
// itself a deterministic function of (seed, site, key), so a retry loop
// with at least failures+1 attempts always recovers, independent of
// scheduling. Keys the Hit decision rejects never fail.
func (i *Injector) Fail(site, key string) error {
	if i == nil || !i.sites[site] {
		return nil
	}
	h := i.hash(site, key)
	if hash01(h) >= i.rate {
		return nil
	}
	planned := 1 + int((h>>17)%uint64(i.failures))
	i.mu.Lock()
	ak := site + "\x00" + key
	n := i.attempts[ak]
	if n >= planned {
		i.mu.Unlock()
		return nil
	}
	i.attempts[ak] = n + 1
	i.mu.Unlock()
	return &Fault{Site: site, Key: key, Attempt: n + 1, Transient: true}
}

// Delay returns the stall duration for (site, key): the injector's delay
// knob when Hit, zero otherwise. Callers must honor context
// cancellation while stalling.
func (i *Injector) Delay(site, key string) time.Duration {
	if !i.Hit(site, key) {
		return 0
	}
	return i.delay
}

// Corrupt deterministically mangles data when (site, key) hits:
// truncating at a hash-derived offset and appending bytes chosen to
// break each substrate parser — the quote leads so that a cut landing on
// a CSV field boundary opens an unterminated quoted field, followed by a
// NUL, an unterminated comment for HTML, and an unterminated bracket for
// schemas. When the site misses, data is returned unchanged.
func (i *Injector) Corrupt(site, key string, data []byte) []byte {
	if !i.Hit(site, key) {
		return data
	}
	h := i.hash(site, key)
	cut := int(h % uint64(len(data)+1))
	out := make([]byte, 0, cut+8)
	out = append(out, data[:cut]...)
	return append(out, "\"\x00<!--["...)
}

// hash is FNV-1a over the seed, site, and key with separators, finalized
// by mix64. Raw FNV-1a has no avalanche on the trailing bytes — keys
// differing only in a final digit would share their top bits, and hash01
// reads exactly those bits — so the mixer is load-bearing, not cosmetic.
func (i *Injector) hash(site, key string) uint64 {
	h := uint64(14695981039346656037)
	step := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	s := i.seed
	for n := 0; n < 8; n++ {
		step(byte(s >> (8 * n)))
	}
	step(0x1f)
	for n := 0; n < len(site); n++ {
		step(site[n])
	}
	step(0x1f)
	for n := 0; n < len(key); n++ {
		step(key[n])
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so every
// input bit flips about half the output bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hash01 maps a hash to [0, 1).
func hash01(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// injectorKey keys the Injector installed in a context.
type injectorKey struct{}

// Into returns a context carrying the injector; the serving stack's
// injection sites read it back with From. A nil injector is fine.
func Into(ctx context.Context, i *Injector) context.Context {
	if i == nil {
		return ctx
	}
	return context.WithValue(ctx, injectorKey{}, i)
}

// From returns the injector carried by the context, or nil (disarmed)
// when none is installed.
func From(ctx context.Context) *Injector {
	if ctx == nil {
		return nil
	}
	i, _ := ctx.Value(injectorKey{}).(*Injector)
	return i
}
