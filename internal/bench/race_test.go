//go:build race

package bench_test

// The race detector slows synthesis about sixfold, so under it the
// program-digest test checks a named subset (raceDigestDomains).
func init() { raceBuild = true }
