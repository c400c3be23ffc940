package tokens

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenMatchPrefix(t *testing.T) {
	cases := []struct {
		tok  Token
		s    string
		i    int
		want int
	}{
		{Number, "123abc", 0, 3},
		{Number, "abc", 0, -1},
		{Number, "a12", 1, 2},
		{Word, "ab12,cd", 0, 4},
		{Alpha, "ab12", 0, 2},
		{Upper, "ABc", 0, 2},
		{Lower, "abC", 0, 2},
		{Space, "  \tx", 0, 3},
		{Comma, ",,x", 0, 2},
		{DblQuote, `""x`, 0, 2},
		{Literal(`,""`), `a,""b`, 1, 3},
		{Literal(`,""`), `a,"b`, 1, -1},
	}
	for _, c := range cases {
		if got := c.tok.MatchPrefix(c.s, c.i); got != c.want {
			t.Errorf("%s.MatchPrefix(%q, %d) = %d, want %d", c.tok, c.s, c.i, got, c.want)
		}
	}
}

func TestTokenMatchSuffix(t *testing.T) {
	cases := []struct {
		tok  Token
		s    string
		i    int
		want int
	}{
		{Number, "ab123", 5, 3},
		{Number, "ab123", 4, -1}, // not right-maximal: a digit follows
		{Number, "ab123x", 5, 3},
		{Number, "abc", 3, -1},
		{Word, "x ab1", 5, 3},
		{Literal(`",`), `a",b`, 3, 2},
		{Literal(`",`), `ab,b`, 3, -1},
		{Literal("xyz"), "xy", 2, -1},
	}
	for _, c := range cases {
		if got := c.tok.MatchSuffix(c.s, c.i); got != c.want {
			t.Errorf("%s.MatchSuffix(%q, %d) = %d, want %d", c.tok, c.s, c.i, got, c.want)
		}
	}
}

func TestTokenPrefixSuffixAgreeProperty(t *testing.T) {
	// For class tokens, MatchPrefix at i and MatchSuffix at i+n agree on
	// maximal runs: if MatchPrefix(s, i) = n > 0 then MatchSuffix(s, i+n) ≥ n.
	f := func(raw []byte) bool {
		s := ""
		for _, b := range raw {
			s += string(rune('0' + b%4)) // digits and a few letters below
			if b%7 == 0 {
				s += "a"
			}
		}
		for i := 0; i <= len(s); i++ {
			n := Number.MatchPrefix(s, i)
			if n > 0 && Number.MatchSuffix(s, i+n) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStandardTokenSetSize(t *testing.T) {
	if len(Standard) != 30 {
		t.Fatalf("standard token set has %d tokens, want 30 (as in the paper)", len(Standard))
	}
	seen := map[string]bool{}
	for _, tok := range Standard {
		if seen[tok.Name] {
			t.Fatalf("duplicate token %s", tok.Name)
		}
		seen[tok.Name] = true
		if tok.IsDynamic() {
			t.Fatalf("standard token %s claims to be dynamic", tok.Name)
		}
	}
	if !Literal("x").IsDynamic() {
		t.Fatal("literal token should be dynamic")
	}
}

func TestRegexMatch(t *testing.T) {
	r := Regex{Number, DblQuote}
	s := `abc 123"`
	if got := r.MatchSuffix(s, len(s)); got != 4 {
		t.Fatalf("MatchSuffix = %d, want 4", got)
	}
	if got := r.MatchPrefix(s, 4); got != 4 {
		t.Fatalf("MatchPrefix = %d, want 4", got)
	}
	if got := r.MatchPrefix(s, 0); got != -1 {
		t.Fatalf("MatchPrefix at 0 = %d, want -1", got)
	}
	if got := (Regex{}).MatchPrefix(s, 3); got != 0 {
		t.Fatalf("ε MatchPrefix = %d, want 0", got)
	}
	if got := (Regex{}).MatchSuffix(s, 3); got != 0 {
		t.Fatalf("ε MatchSuffix = %d, want 0", got)
	}
}

func TestRegexStringAndEq(t *testing.T) {
	r := Regex{Number, Comma}
	if r.String() != "[Number, Comma]" {
		t.Fatalf("String = %q", r.String())
	}
	if (Regex{}).String() != "ε" {
		t.Fatal("ε display broken")
	}
	if !r.Eq(Regex{Number, Comma}) || r.Eq(Regex{Comma, Number}) || r.Eq(Regex{Number}) {
		t.Fatal("Eq broken")
	}
	if r.DynamicCount() != 0 || (Regex{Literal("a"), Number}).DynamicCount() != 1 {
		t.Fatal("DynamicCount broken")
	}
}

func TestRegexPairPositions(t *testing.T) {
	// positions between a number on the left and a comma on the right
	s := "a1,b22,c3"
	rr := RegexPair{Left: Regex{Number}, Right: Regex{Comma}}
	got := rr.Positions(s)
	want := []int{2, 6}
	if len(got) != len(want) {
		t.Fatalf("Positions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Positions = %v, want %v", got, want)
		}
	}
	// ε left side: all positions where a comma starts
	rr2 := RegexPair{Right: Regex{Comma}}
	got2 := rr2.Positions(s)
	if len(got2) != 2 || got2[0] != 2 || got2[1] != 6 {
		t.Fatalf("Positions ε-left = %v", got2)
	}
	if ps := (RegexPair{}).Positions(s); ps != nil {
		t.Fatalf("double-ε Positions = %v, want nil", ps)
	}
}

// TestCountMatches pins the greedy non-overlapping count, and that
// Cache.CountIn, which tests only the first token's starts, agrees with it
// over the whole text and over a range cutting its first byte.
func TestCountMatches(t *testing.T) {
	cases := []struct {
		r    Regex
		s    string
		want int
	}{
		{Regex{Number}, "1a22b333", 3},
		{Regex{}, "abc", 0},
		{Regex{Literal("ab")}, "ababab", 3},
		{Regex{Literal("aa")}, "aaaaa", 2},                    // overlapping occurrences
		{Regex{Word, Hyphen, Word}, "ab-cd-ef-gh", 2},         // a start inside a match
		{Regex{Word, Hyphen}, "ab-cd-ef", 2},                  // a start at a match's end
		{Regex{Number, Space, Number}, "1 2 3 4 5", 2},        // chained matches
		{Regex{Literal("-"), Lower}, "x-a-b--c", 3},           // literal first token
		{Regex{Lower, Literal("--")}, "a--b---c----", 3},      // overlapping literal inside
		{Regex{Upper, Lower}, "AbCDeFgHI", 3},                 // runs cut by other classes
		{Regex{Colon, Colon}, ":::", 0},                       // class runs are maximal
		{Regex{Literal(":"), Literal(":")}, ":::::", 2},       // literals are not
		{Regex{Space, Literal("aa")}, " aaa aa  aa", 3},       // literal after a run
		{Regex{Alpha, Number, Alpha}, "a1b2c3d", 2},           // chained, alternating
		{Regex{Literal("ab"), Literal("ba")}, "abbababba", 2}, // literal then literal
	}
	for _, c := range cases {
		if got := CountMatches(c.r, c.s); got != c.want {
			t.Fatalf("CountMatches(%s, %q) = %d, want %d", c.r, c.s, got, c.want)
		}
		text := "#" + c.s
		cache := NewCache(text)
		if got := cache.CountIn(1, len(text), c.r); got != c.want {
			t.Fatalf("CountIn(%s) over %q = %d, want %d", c.r, c.s, got, c.want)
		}
		if got, want := cache.CountIn(2, len(text), c.r), CountMatches(c.r, c.s[1:]); got != want {
			t.Fatalf("CountIn(%s) over %q = %d, want %d", c.r, c.s[1:], got, want)
		}
	}
}

func TestAbsPosEval(t *testing.T) {
	s := "hello"
	cases := []struct {
		k, want int
		ok      bool
	}{
		{0, 0, true}, {5, 5, true}, {-1, 5, true}, {-6, 0, true},
		{6, 0, false}, {-7, 0, false},
	}
	for _, c := range cases {
		got, err := AbsPos{K: c.k}.Eval(s)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("AbsPos(%d) = %d, %v; want %d", c.k, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("AbsPos(%d) should fail", c.k)
		}
	}
}

func TestRegPosEval(t *testing.T) {
	s := "a1,b2,c3"
	rr := RegexPair{Left: Regex{Number}, Right: Regex{Comma}}
	// positions: 2, 5
	p1, err := (RegPos{RR: rr, K: 1}).Eval(s)
	if err != nil || p1 != 2 {
		t.Fatalf("RegPos k=1: %d, %v", p1, err)
	}
	pLast, err := (RegPos{RR: rr, K: -1}).Eval(s)
	if err != nil || pLast != 5 {
		t.Fatalf("RegPos k=-1: %d, %v", pLast, err)
	}
	if _, err := (RegPos{RR: rr, K: 3}).Eval(s); err == nil {
		t.Fatal("RegPos k=3 should fail")
	}
	if _, err := (RegPos{RR: rr, K: 0}).Eval(s); err == nil {
		t.Fatal("RegPos k=0 should fail")
	}
}

func TestSeqsEndingAt(t *testing.T) {
	s := `ab12"`
	seqs := SeqsEndingAt(s, len(s), Standard)
	if len(seqs) == 0 || len(seqs[0]) != 0 {
		t.Fatal("first sequence must be ε")
	}
	var found bool
	for _, r := range seqs {
		if r.Eq(Regex{Number, DblQuote}) {
			found = true
		}
		if got := r.MatchSuffix(s, len(s)); got < 0 {
			t.Errorf("enumerated regex %s does not match suffix", r)
		}
	}
	if !found {
		t.Fatal("expected [Number, Quote] among suffix sequences")
	}
}

func TestSeqsStartingAt(t *testing.T) {
	s := `12,ab`
	seqs := SeqsStartingAt(s, 0, Standard)
	var found bool
	for _, r := range seqs {
		if r.Eq(Regex{Number, Comma, Alpha}) {
			found = true
		}
		if len(r) > 0 && r.MatchPrefix(s, 0) < 0 {
			t.Errorf("enumerated regex %s does not match prefix", r)
		}
	}
	if !found {
		t.Fatal("expected [Number, Comma, Alpha] among prefix sequences")
	}
}

func TestLearnAttrsSingleExample(t *testing.T) {
	// Position after "ID:" in a simple line.
	s := "ID:42 name"
	attrs := LearnAttrs([]PosExample{{S: s, K: 3}}, Standard)
	if len(attrs) == 0 {
		t.Fatal("no attributes learned")
	}
	for _, a := range attrs {
		k, err := a.Eval(s)
		if err != nil || k != 3 {
			t.Fatalf("inconsistent attribute %s: %d, %v", a, k, err)
		}
	}
}

func TestLearnAttrsCrossExampleGeneralizes(t *testing.T) {
	// The start of the number after the colon, across two strings of
	// different lengths: AbsPos cannot work; a colon-context RegPos must.
	exs := []PosExample{
		{S: "x:1", K: 2},
		{S: "longer:22", K: 7},
	}
	attrs := LearnAttrs(exs, Standard)
	if len(attrs) == 0 {
		t.Fatal("no attributes learned")
	}
	top := attrs[0]
	if k, err := top.Eval("abc:9"); err != nil || k != 4 {
		t.Fatalf("top attribute %s failed to generalize: %d, %v", top, k, err)
	}
	for _, a := range attrs {
		if _, isAbs := a.(AbsPos); isAbs {
			t.Fatalf("AbsPos %s cannot be consistent with both examples", a)
		}
	}
}

func TestLearnAttrsRanking(t *testing.T) {
	// Position 0 should be ranked as AbsPos(0).
	attrs := LearnAttrs([]PosExample{{S: "abc", K: 0}, {S: "xy", K: 0}}, Standard)
	if len(attrs) == 0 {
		t.Fatal("no attributes")
	}
	if a, ok := attrs[0].(AbsPos); !ok || a.K != 0 {
		t.Fatalf("top attribute = %s, want AbsPos(0)", attrs[0])
	}
}

func TestLearnAttrsEmpty(t *testing.T) {
	if attrs := LearnAttrs(nil, Standard); attrs != nil {
		t.Fatal("expected nil for no examples")
	}
}

func TestLearnAttrsWithDynamicTokens(t *testing.T) {
	doc := `h,""Be"",1` + "\n" + `i,""Sc"",2`
	line := `h,""Be"",1`
	dyn := DiscoverDynamicTokens(doc, []PosExample{{S: line, K: 4}}, 4, 2, 20)
	if len(dyn) == 0 {
		t.Fatal("no dynamic tokens discovered")
	}
	var hasQuotePair bool
	for _, d := range dyn {
		if strings.Contains(d.Name, `,""`) {
			hasQuotePair = true
		}
	}
	if !hasQuotePair {
		t.Fatalf(`expected a dynamic token containing ,"" got %v`, dyn)
	}
	attrs := LearnAttrs([]PosExample{{S: line, K: 4}}, append(append([]Token{}, Standard...), dyn...))
	if len(attrs) == 0 {
		t.Fatal("no attributes with dynamic tokens")
	}
}

func TestLearnRegexPairs(t *testing.T) {
	s := `a:1,b:22,c:333`
	// positions right after each colon
	exs := []SeqPosExample{{S: s, Ks: []int{2, 6}}}
	pairs := LearnRegexPairs(exs, Standard)
	if len(pairs) == 0 {
		t.Fatal("no regex pairs learned")
	}
	for _, rr := range pairs {
		ps := rr.Positions(s)
		if !containsAllInts(ps, []int{2, 6}) {
			t.Fatalf("pair %s misses positives: %v", rr, ps)
		}
	}
	// the natural pair (Colon, Number) must select position 11 too
	top := pairs[0]
	ps := top.Positions(s)
	if !containsAllInts(ps, []int{2, 6, 11}) {
		t.Fatalf("top pair %s does not generalize: %v", top, ps)
	}
}

func TestLearnRegexPairsNoPositives(t *testing.T) {
	if got := LearnRegexPairs([]SeqPosExample{{S: "abc"}}, Standard); got != nil {
		t.Fatal("expected nil for no positive positions")
	}
}

func TestDiscoverDynamicTokens(t *testing.T) {
	doc := "foo=1;foo=2;foo=3"
	// example position right after "foo=" occurrences
	dyn := DiscoverDynamicTokens(doc, []PosExample{{S: doc, K: 4}}, 4, 2, 10)
	var found bool
	for _, d := range dyn {
		if d.lit == "foo=" {
			found = true
		}
	}
	if !found {
		t.Fatalf("foo= not promoted: %v", dyn)
	}
	// cap respected
	capped := DiscoverDynamicTokens(doc, []PosExample{{S: doc, K: 4}}, 4, 2, 1)
	if len(capped) != 1 {
		t.Fatalf("cap ignored: %d tokens", len(capped))
	}
}

func TestCountOccurrences(t *testing.T) {
	if countOccurrences("aaaa", "aa") != 2 {
		t.Fatal("non-overlapping count broken")
	}
	if countOccurrences("abc", "x") != 0 {
		t.Fatal("missing substring count broken")
	}
}

func TestContainsAllInts(t *testing.T) {
	if !containsAllInts([]int{1, 2, 3}, []int{1, 3}) {
		t.Fatal("subset not detected")
	}
	if containsAllInts([]int{1, 2, 3}, []int{3, 1}) {
		t.Fatal("order ignored")
	}
	if !containsAllInts([]int{1}, nil) {
		t.Fatal("empty subset should hold")
	}
}

func TestClassTokenMaximality(t *testing.T) {
	// Class tokens match maximal runs only: no match starting or ending
	// inside a run.
	if got := Word.MatchPrefix("abcd", 1); got != -1 {
		t.Fatalf("prefix inside run = %d, want -1", got)
	}
	if got := Word.MatchPrefix("abcd", 0); got != 4 {
		t.Fatalf("prefix at run start = %d, want 4", got)
	}
	if got := Lower.MatchSuffix("Vaziri, S", 6); got != 5 {
		t.Fatalf("suffix at run end = %d, want 5", got)
	}
	if got := Lower.MatchSuffix("Vaziri, S", 4); got != -1 {
		t.Fatalf("suffix inside run = %d, want -1", got)
	}
	// Literal tokens are exempt from maximality.
	if got := Literal("zi").MatchSuffix("Vaziri", 4); got != 2 {
		t.Fatalf("literal suffix = %d, want 2", got)
	}
}

func TestAttrSpecRoundTrip(t *testing.T) {
	attrs := []Attr{
		AbsPos{K: 0},
		AbsPos{K: -3},
		RegPos{RR: RegexPair{Left: Regex{Number, Comma}, Right: Regex{Literal(`,""`)}}, K: -2},
		RegPos{RR: RegexPair{Right: Regex{Upper}}, K: 1},
	}
	for _, a := range attrs {
		s, err := MarshalAttr(a)
		if err != nil {
			t.Fatalf("MarshalAttr(%s): %v", a, err)
		}
		back, err := UnmarshalAttr(s)
		if err != nil {
			t.Fatalf("UnmarshalAttr(%s): %v", s, err)
		}
		if back.String() != a.String() {
			t.Fatalf("round trip changed attr: %s vs %s", a, back)
		}
		// behavioural equality on a sample string
		in := `ab12,""34,Z`
		k1, e1 := a.Eval(in)
		k2, e2 := back.Eval(in)
		if (e1 == nil) != (e2 == nil) || k1 != k2 {
			t.Fatalf("round trip changed behaviour of %s", a)
		}
	}
}

func TestRegexPairSpecRoundTrip(t *testing.T) {
	rr := RegexPair{Left: Regex{Word}, Right: Regex{Literal("=="), Number}}
	s, err := MarshalRegexPair(rr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRegexPair(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != rr.String() {
		t.Fatalf("round trip changed pair: %s vs %s", rr, back)
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := FromSpec(TokenSpec{Kind: "std", Value: "NoSuchToken"}); err == nil {
		t.Fatal("unknown standard token accepted")
	}
	if _, err := FromSpec(TokenSpec{Kind: "weird"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := FromSpec(TokenSpec{Kind: "lit", Value: ""}); err == nil {
		t.Fatal("empty literal accepted")
	}
	if _, err := UnmarshalAttr("not json"); err == nil {
		t.Fatal("junk attr accepted")
	}
	if _, err := UnmarshalAttr(`{"kind":"weird"}`); err == nil {
		t.Fatal("unknown attr kind accepted")
	}
	if _, err := UnmarshalRegexPair("junk"); err == nil {
		t.Fatal("junk pair accepted")
	}
	if _, err := UnmarshalAttr(`{"kind":"reg","k":1,"left":[{"kind":"weird"}]}`); err == nil {
		t.Fatal("bad regex token accepted")
	}
}
