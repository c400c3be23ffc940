//go:build race

package bench_test

// The race detector slows synthesis about sixfold, so under it the
// digest tests check a named subset (raceDigestDomains).
func init() { raceBuild = true }
