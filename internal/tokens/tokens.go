// Package tokens implements the token and regex substrate of the text
// instantiation of FlashExtract (§5.1): a fixed set of standard
// character-class tokens plus dynamically learned literal tokens, regexes
// that are concatenations of at most three tokens, regex-pair position
// sequences (PosSeq), and position attributes (AbsPos / RegPos) together
// with their example-based learners.
package tokens

import (
	"fmt"
	"strings"
)

// Token matches maximal runs of characters at a string boundary. Tokens
// are value types and must be comparable.
type Token struct {
	// Name is the token's display name.
	Name string
	// class is non-nil for character-class tokens (matched as C+): the
	// byte table of the class, built once per token, so a byte test is
	// one load rather than a call.
	class *[256]bool
	// lit is non-empty for literal (dynamic) tokens.
	lit string
}

// Literal returns a dynamic token matching the exact string s, which must
// be non-empty.
func Literal(s string) Token {
	return Token{Name: fmt.Sprintf("DynamicTok(%s)", s), lit: s}
}

// IsDynamic reports whether t is a dynamically learned literal token.
func (t Token) IsDynamic() bool { return t.lit != "" }

// Lit returns the literal content of a dynamic token, or "" for
// character-class tokens. It exposes the matched bytes to static
// analyses (e.g. the batch prefilter) without widening the Token API.
func (t Token) Lit() string { return t.lit }

// MatchesByte reports whether a character-class token's class accepts b.
// It is always false for dynamic literal tokens (use Lit for those).
func (t Token) MatchesByte(b byte) bool { return t.class != nil && t.class[b] }

// MatchPrefix returns the length of the match of t starting at s[i:], or
// -1 when t does not match there. Class tokens match maximal runs (as in
// FlashFill-style position learning): the run must not be extensible to
// the left, i.e. position i must be a run boundary. Literal tokens match
// anywhere.
func (t Token) MatchPrefix(s string, i int) int {
	if t.lit != "" {
		if strings.HasPrefix(s[i:], t.lit) {
			return len(t.lit)
		}
		return -1
	}
	if i > 0 && t.class[s[i-1]] {
		return -1 // not left-maximal
	}
	j := i
	for j < len(s) && t.class[s[j]] {
		j++
	}
	if j == i {
		return -1
	}
	return j - i
}

// MatchSuffix returns the length of the match of t ending at position i
// (exclusive), or -1 when t does not match there. Class tokens match
// maximal runs: position i must be a run boundary on the right.
func (t Token) MatchSuffix(s string, i int) int {
	if t.lit != "" {
		if i >= len(t.lit) && s[i-len(t.lit):i] == t.lit {
			return len(t.lit)
		}
		return -1
	}
	if i < len(s) && t.class[s[i]] {
		return -1 // not right-maximal
	}
	j := i
	for j > 0 && t.class[s[j-1]] {
		j--
	}
	if j == i {
		return -1
	}
	return i - j
}

func (t Token) String() string { return t.Name }

// classToken tabulates the class predicate f over all 256 bytes.
func classToken(name string, f func(byte) bool) Token {
	var class [256]bool
	for b := range class {
		class[b] = f(byte(b))
	}
	return Token{Name: name, class: &class}
}

func charToken(name string, c byte) Token {
	return classToken(name, func(b byte) bool { return b == c })
}

// The standard token set (30 tokens, mirroring the paper's instantiation).
var (
	Word       = classToken("Word", func(b byte) bool { return isAlnum(b) })
	Alpha      = classToken("Alpha", func(b byte) bool { return isAlpha(b) })
	Lower      = classToken("Lower", func(b byte) bool { return b >= 'a' && b <= 'z' })
	Upper      = classToken("Upper", func(b byte) bool { return b >= 'A' && b <= 'Z' })
	Number     = classToken("Number", func(b byte) bool { return b >= '0' && b <= '9' })
	Space      = classToken("Space", func(b byte) bool { return b == ' ' || b == '\t' })
	Comma      = charToken("Comma", ',')
	Dot        = charToken("Dot", '.')
	Semicolon  = charToken("Semicolon", ';')
	Colon      = charToken("Colon", ':')
	Hyphen     = charToken("Hyphen", '-')
	Underscore = charToken("Underscore", '_')
	Slash      = charToken("Slash", '/')
	Backslash  = charToken("Backslash", '\\')
	Quote      = charToken("SingleQuote", '\'')
	DblQuote   = charToken("Quote", '"')
	LParen     = charToken("LParen", '(')
	RParen     = charToken("RParen", ')')
	LBracket   = charToken("LBracket", '[')
	RBracket   = charToken("RBracket", ']')
	Lt         = charToken("Lt", '<')
	Gt         = charToken("Gt", '>')
	Equals     = charToken("Equals", '=')
	Plus       = charToken("Plus", '+')
	Star       = charToken("Star", '*')
	Hash       = charToken("Hash", '#')
	Dollar     = charToken("Dollar", '$')
	Percent    = charToken("Percent", '%')
	Amp        = charToken("Amp", '&')
	At         = charToken("At", '@')
)

// Standard is the fixed token set used by the text instantiation.
var Standard = []Token{
	Word, Alpha, Lower, Upper, Number, Space,
	Comma, Dot, Semicolon, Colon, Hyphen, Underscore, Slash, Backslash,
	Quote, DblQuote, LParen, RParen, LBracket, RBracket,
	Lt, Gt, Equals, Plus, Star, Hash, Dollar, Percent, Amp, At,
}

func isAlpha(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isAlnum(b byte) bool {
	return isAlpha(b) || (b >= '0' && b <= '9')
}

// MaxRegexTokens is the maximum number of tokens in a regex (T{0,3}).
const MaxRegexTokens = 3

// Regex is a concatenation of at most MaxRegexTokens tokens. The empty
// regex (ε) matches at every position with length 0.
type Regex []Token

func (r Regex) String() string {
	if len(r) == 0 {
		return "ε"
	}
	parts := make([]string, len(r))
	for i, t := range r {
		parts[i] = t.Name
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// DynamicCount returns the number of dynamic tokens in r.
func (r Regex) DynamicCount() int {
	n := 0
	for _, t := range r {
		if t.IsDynamic() {
			n++
		}
	}
	return n
}

// MatchPrefix returns the total length of r matching as a prefix of s[i:],
// or -1. Tokens match greedily left to right.
func (r Regex) MatchPrefix(s string, i int) int {
	j := i
	for _, t := range r {
		n := t.MatchPrefix(s, j)
		if n < 0 {
			return -1
		}
		j += n
	}
	return j - i
}

// MatchSuffix returns the total length of r matching as a suffix ending at
// position i (exclusive), or -1. Tokens match greedily right to left.
func (r Regex) MatchSuffix(s string, i int) int {
	j := i
	for k := len(r) - 1; k >= 0; k-- {
		n := r[k].MatchSuffix(s, j)
		if n < 0 {
			return -1
		}
		j -= n
	}
	return i - j
}

// Eq reports whether two regexes are identical token sequences.
func (r Regex) Eq(o Regex) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i].Name != o[i].Name {
			return false
		}
	}
	return true
}

// RegexPair is the rr construct: a pair of regexes matching on the left
// and right side of a position.
type RegexPair struct {
	Left, Right Regex
}

func (rr RegexPair) String() string {
	return fmt.Sprintf("(%s, %s)", rr.Left, rr.Right)
}

// Cost is the heuristic ranking score of the regex pair: shorter contexts
// rank better, and dynamic tokens carry a small penalty.
func (rr RegexPair) Cost() int {
	return 1 + len(rr.Left) + len(rr.Right) + rr.Left.DynamicCount() + rr.Right.DynamicCount()
}

// Positions returns the position sequence identified by rr in s: all
// positions k such that rr.Left matches a suffix ending at k and rr.Right
// matches a prefix starting at k. Both regexes empty yields no positions
// (a vacuous match everywhere is never useful and would explode learning).
func (rr RegexPair) Positions(s string) []int {
	if len(rr.Left) == 0 && len(rr.Right) == 0 {
		return nil
	}
	var out []int
	for k := 0; k <= len(s); k++ {
		if rr.matchesAt(s, k) {
			out = append(out, k)
		}
	}
	return out
}

// matchesAt reports whether position k of s belongs to rr's position
// sequence: rr.Left matches a suffix ending at k and rr.Right a prefix
// starting at k.
func (rr RegexPair) matchesAt(s string, k int) bool {
	return rr.Left.MatchSuffix(s, k) >= 0 && rr.Right.MatchPrefix(s, k) >= 0
}

// CountMatches returns the number of non-overlapping matches of r in s,
// scanning left to right.
func CountMatches(r Regex, s string) int {
	if len(r) == 0 {
		return 0
	}
	n := 0
	for i := 0; i <= len(s); {
		m := r.MatchPrefix(s, i)
		if m > 0 {
			n++
			i += m
		} else {
			i++
		}
	}
	return n
}
