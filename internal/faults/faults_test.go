package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestHitDeterministic asserts the fault decision is a pure function of
// (seed, site, key): two injectors with the same seed agree on every
// probe, and probing repeatedly never changes the answer.
func TestHitDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	hits := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("doc%d.txt", i)
		ha := a.Hit(SiteDocRead, key)
		if hb := b.Hit(SiteDocRead, key); ha != hb {
			t.Fatalf("same seed disagrees on %q: %v vs %v", key, ha, hb)
		}
		if again := a.Hit(SiteDocRead, key); again != ha {
			t.Fatalf("repeated probe of %q changed: %v then %v", key, ha, again)
		}
		if ha {
			hits++
		}
	}
	// Rate 0.5 over 200 keys: a wildly skewed hash would be a bug.
	if hits < 50 || hits > 150 {
		t.Fatalf("hit count %d/200 far from rate 0.5", hits)
	}
	other := New(43)
	diff := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("doc%d.txt", i)
		if a.Hit(SiteDocRead, key) != other.Hit(SiteDocRead, key) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 42 and 43 produce identical decisions")
	}
}

// TestFailTransientSemantics asserts Fail fails a hit key a bounded,
// deterministic number of times and then succeeds forever — the contract
// the retry layer recovers.
func TestFailTransientSemantics(t *testing.T) {
	inj := New(7)
	faulted := false
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("doc%d", i)
		if !inj.Hit(SiteDocRead, key) {
			if err := inj.Fail(SiteDocRead, key); err != nil {
				t.Fatalf("missed key %q still failed: %v", key, err)
			}
			continue
		}
		faulted = true
		fails := 0
		for try := 0; try < 10; try++ {
			err := inj.Fail(SiteDocRead, key)
			if err == nil {
				break
			}
			if !IsTransient(err) || !IsFault(err) {
				t.Fatalf("injected fault not classified transient: %v", err)
			}
			fails++
		}
		if fails < 1 || fails > DefaultFailures {
			t.Fatalf("key %q failed %d times, want 1..%d", key, fails, DefaultFailures)
		}
		// Attempts are consumed: the key now succeeds forever.
		if err := inj.Fail(SiteDocRead, key); err != nil {
			t.Fatalf("key %q failed after recovery: %v", key, err)
		}
	}
	if !faulted {
		t.Fatal("no key hit at rate 0.5 over 100 keys")
	}
}

// TestNilInjectorDisarmed asserts every method of a nil *Injector is a
// no-op, matching the zero-cost contract of compiled-in sites.
func TestNilInjectorDisarmed(t *testing.T) {
	var inj *Injector
	if inj.Hit(SiteDocRead, "x") || inj.Armed(SiteDocRead) {
		t.Fatal("nil injector hit")
	}
	if err := inj.Fail(SiteDocRead, "x"); err != nil {
		t.Fatal(err)
	}
	if d := inj.Delay(SiteWorkerSlow, "x"); d != 0 {
		t.Fatalf("nil injector delay %v", d)
	}
	if got := inj.Corrupt(SiteDocParse, "x", []byte("abc")); string(got) != "abc" {
		t.Fatalf("nil injector corrupted data: %q", got)
	}
	if inj.Seed() != 0 || inj.Sites() != nil || inj.String() != "" {
		t.Fatal("nil injector exposes state")
	}
	if From(context.Background()) != nil {
		t.Fatal("empty context carries an injector")
	}
}

// TestParseSpec covers the spec grammar: defaults, every knob, site
// lists, and the error cases that must not silently disarm chaos.
func TestParseSpec(t *testing.T) {
	inj, err := ParseSpec("seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if inj.Seed() != 9 || inj.Rate() != DefaultRate {
		t.Fatalf("defaults wrong: %s", inj)
	}
	got := inj.Sites()
	want := []string{SiteDocRead, SiteWorkerSlow}
	if len(got) != len(want) {
		t.Fatalf("default sites = %v", got)
	}
	for _, s := range want {
		if !inj.Armed(s) {
			t.Fatalf("default site %s not armed", s)
		}
	}
	if inj.Armed(SiteDocParse) || inj.Armed(SiteBudget) {
		t.Fatal("destructive site armed by default")
	}

	inj, err = ParseSpec("seed=3,rate=1.0,failures=1,delay=5ms,sites=batch.doc_parse;engine.budget")
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Armed(SiteDocParse) || !inj.Armed(SiteBudget) || inj.Armed(SiteDocRead) {
		t.Fatalf("sites = %v", inj.Sites())
	}
	if !inj.Hit(SiteDocParse, "anything") {
		t.Fatal("rate=1.0 missed")
	}

	// Round trip: String() reparses to the same decisions.
	again, err := ParseSpec(inj.String())
	if err != nil {
		t.Fatalf("String() %q does not reparse: %v", inj, err)
	}
	if again.String() != inj.String() {
		t.Fatalf("round trip %q != %q", again, inj)
	}

	for _, bad := range []string{
		"", "rate=0.5", "seed=x", "seed=1,rate=2", "seed=1,failures=0",
		"seed=1,sites=no.such_site", "seed=1,bogus=3", "seed=1,delay=-1s",
		"seed=1,sites=tokens.cache_evict", // a removed site
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestCorruptDeterministic asserts corruption is stable per key and
// leaves missed keys untouched.
func TestCorruptDeterministic(t *testing.T) {
	inj, err := ParseSpec("seed=5,rate=1.0,sites=batch.doc_parse")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("Name,Price\nBolt,1.00\n")
	a := inj.Corrupt(SiteDocParse, "doc1", data)
	b := inj.Corrupt(SiteDocParse, "doc1", data)
	if string(a) != string(b) {
		t.Fatalf("corruption not deterministic: %q vs %q", a, b)
	}
	if string(a) == string(data) {
		t.Fatal("hit key not corrupted")
	}
	miss, _ := ParseSpec("seed=5,rate=0.0,sites=batch.doc_parse")
	if got := miss.Corrupt(SiteDocParse, "doc1", data); string(got) != string(data) {
		t.Fatalf("missed key corrupted: %q", got)
	}
}

// TestContextPlumbing asserts Into/From round-trips the injector.
func TestContextPlumbing(t *testing.T) {
	inj := New(1)
	ctx := Into(context.Background(), inj)
	if From(ctx) != inj {
		t.Fatal("context did not carry the injector")
	}
	if got := Into(context.Background(), nil); From(got) != nil {
		t.Fatal("nil injector installed")
	}
}

// TestDelay asserts the slow-worker site returns the configured stall
// for hit keys and zero otherwise.
func TestDelay(t *testing.T) {
	inj, err := ParseSpec("seed=2,rate=1.0,delay=7ms,sites=batch.worker_slow")
	if err != nil {
		t.Fatal(err)
	}
	if d := inj.Delay(SiteWorkerSlow, "k"); d != 7*time.Millisecond {
		t.Fatalf("delay = %v", d)
	}
	if d := inj.Delay(SiteDocRead, "k"); d != 0 {
		t.Fatalf("unarmed site delayed %v", d)
	}
}

// TestIsTransientWrapped asserts classification survives error wrapping,
// which the batch runtime relies on when it annotates read failures.
func TestIsTransientWrapped(t *testing.T) {
	f := &Fault{Site: SiteDocRead, Key: "d", Attempt: 1, Transient: true}
	wrapped := fmt.Errorf("reading document: %w", f)
	if !IsTransient(wrapped) || !IsFault(wrapped) {
		t.Fatal("wrapped transient fault not classified")
	}
	if IsTransient(errors.New("organic failure")) {
		t.Fatal("organic error classified transient")
	}
	perm := &Fault{Site: SiteDocParse, Key: "d", Attempt: 1}
	if IsTransient(perm) || !IsFault(perm) {
		t.Fatal("permanent fault misclassified")
	}
}
