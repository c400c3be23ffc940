package core

// This file is the state seam for incremental interactive synthesis (the
// maintenance of candidate sets across refinement iterations described in
// "Interactive Program Synthesis", Le et al.): a retained candidate set is
// only reusable while the environment it was learned in is unchanged — the
// engine session tracks that as a commit epoch — and while the example
// spec has only grown. ExtendsSpec is the grows-only test over example
// slices.

// ExtendsSpec reports whether the example spec grew monotonically from
// (oldN items identified by key index) to the new spec: every old item is
// still present. Items are compared by the eq predicate. Retained candidate
// sets were filtered against the old spec, so they remain sound supersets
// of the consistent set exactly when the spec only gained examples.
func ExtendsSpec[T any](old, cur []T, eq func(a, b T) bool) bool {
	for _, o := range old {
		found := false
		for _, c := range cur {
			if eq(o, c) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
