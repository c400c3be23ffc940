package tokens

import (
	"encoding/json"
	"fmt"
)

// TokenSpec is the serializable form of a token: a standard token
// referenced by name, or a dynamic literal by value.
type TokenSpec struct {
	Kind  string `json:"kind"` // "std" or "lit"
	Value string `json:"value"`
}

// Spec serializes a token.
func (t Token) Spec() TokenSpec {
	if t.IsDynamic() {
		return TokenSpec{Kind: "lit", Value: t.lit}
	}
	return TokenSpec{Kind: "std", Value: t.Name}
}

var standardByName = func() map[string]Token {
	out := make(map[string]Token, len(Standard))
	for _, t := range Standard {
		out[t.Name] = t
	}
	return out
}()

// FromSpec reconstructs a token. An empty literal is an error: it is
// neither a literal nor a class token, so no matcher can evaluate it (no
// learner produces one).
func FromSpec(s TokenSpec) (Token, error) {
	switch s.Kind {
	case "lit":
		if s.Value == "" {
			return Token{}, fmt.Errorf("tokens: empty literal token")
		}
		return Literal(s.Value), nil
	case "std":
		t, ok := standardByName[s.Value]
		if !ok {
			return Token{}, fmt.Errorf("tokens: unknown standard token %q", s.Value)
		}
		return t, nil
	default:
		return Token{}, fmt.Errorf("tokens: unknown token kind %q", s.Kind)
	}
}

// RegexSpec is the serializable form of a regex.
type RegexSpec []TokenSpec

// Spec serializes a regex.
func (r Regex) Spec() RegexSpec {
	out := make(RegexSpec, len(r))
	for i, t := range r {
		out[i] = t.Spec()
	}
	return out
}

// RegexFromSpec reconstructs a regex.
func RegexFromSpec(s RegexSpec) (Regex, error) {
	out := make(Regex, len(s))
	for i, ts := range s {
		t, err := FromSpec(ts)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// AttrSpec is the serializable form of a position attribute.
type AttrSpec struct {
	Kind  string    `json:"kind"` // "abs" or "reg"
	K     int       `json:"k"`
	Left  RegexSpec `json:"left,omitempty"`
	Right RegexSpec `json:"right,omitempty"`
}

// SpecOf serializes a position attribute.
func SpecOf(a Attr) (AttrSpec, error) {
	switch v := a.(type) {
	case AbsPos:
		return AttrSpec{Kind: "abs", K: v.K}, nil
	case RegPos:
		return AttrSpec{Kind: "reg", K: v.K, Left: v.RR.Left.Spec(), Right: v.RR.Right.Spec()}, nil
	default:
		return AttrSpec{}, fmt.Errorf("tokens: unknown attribute type %T", a)
	}
}

// AttrFromSpec reconstructs a position attribute.
func AttrFromSpec(s AttrSpec) (Attr, error) {
	switch s.Kind {
	case "abs":
		return AbsPos{K: s.K}, nil
	case "reg":
		left, err := RegexFromSpec(s.Left)
		if err != nil {
			return nil, err
		}
		right, err := RegexFromSpec(s.Right)
		if err != nil {
			return nil, err
		}
		return RegPos{RR: RegexPair{Left: left, Right: right}, K: s.K}, nil
	default:
		return nil, fmt.Errorf("tokens: unknown attribute kind %q", s.Kind)
	}
}

// MarshalAttr renders a position attribute as a JSON string, for embedding
// in program spec attributes.
func MarshalAttr(a Attr) (string, error) {
	spec, err := SpecOf(a)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(spec)
	return string(b), err
}

// UnmarshalAttr parses a position attribute from its JSON string form.
func UnmarshalAttr(s string) (Attr, error) {
	var spec AttrSpec
	if err := json.Unmarshal([]byte(s), &spec); err != nil {
		return nil, err
	}
	return AttrFromSpec(spec)
}

// MarshalRegexPair renders a regex pair as a JSON string.
func MarshalRegexPair(rr RegexPair) (string, error) {
	spec := struct {
		Left  RegexSpec `json:"left,omitempty"`
		Right RegexSpec `json:"right,omitempty"`
	}{rr.Left.Spec(), rr.Right.Spec()}
	b, err := json.Marshal(spec)
	return string(b), err
}

// UnmarshalRegexPair parses a regex pair from its JSON string form.
func UnmarshalRegexPair(s string) (RegexPair, error) {
	var spec struct {
		Left  RegexSpec `json:"left"`
		Right RegexSpec `json:"right"`
	}
	if err := json.Unmarshal([]byte(s), &spec); err != nil {
		return RegexPair{}, err
	}
	left, err := RegexFromSpec(spec.Left)
	if err != nil {
		return RegexPair{}, err
	}
	right, err := RegexFromSpec(spec.Right)
	if err != nil {
		return RegexPair{}, err
	}
	return RegexPair{Left: left, Right: right}, nil
}
