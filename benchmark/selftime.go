package main

import (
	"sort"
	"strings"
	"time"

	"flashextract/internal/trace"
)

// spanNode is a finished span as an interval: start and end are offsets
// from a common epoch. The self-time aggregation works on this form so
// its tests can build trees with exact, overlapping intervals.
type spanNode struct {
	name       string
	start, end time.Duration
	children   []spanNode
}

// nodeOf converts a finished span tree, measuring offsets from epoch.
func nodeOf(s *trace.Span, epoch time.Time) spanNode {
	start := s.Start().Sub(epoch)
	n := spanNode{name: s.Name(), start: start, end: start + s.Duration()}
	for _, c := range s.Children() {
		n.children = append(n.children, nodeOf(c, epoch))
	}
	return n
}

// layerTime is the aggregate of one span family.
type layerTime struct {
	count       int64
	total, self time.Duration
}

// profile maps a span family to its aggregate.
type profile map[string]*layerTime

// add folds a span tree into the profile. Each span's self time is its
// duration minus the union of its children's intervals, clipped to the
// span: validate_worker children run concurrently and overlap, so
// subtracting the sum of their durations would undercount the parent.
// Spans whose family is "" are not recorded, but still count as children
// of their parent.
func (p profile) add(n spanNode, family func(string) string) {
	if f := family(n.name); f != "" {
		lt := p[f]
		if lt == nil {
			lt = &layerTime{}
			p[f] = lt
		}
		lt.count++
		lt.total += n.end - n.start
		lt.self += n.end - n.start - covered(n)
	}
	for _, c := range n.children {
		p.add(c, family)
	}
}

// covered is the length of the union of n's children's intervals within n.
func covered(n spanNode) time.Duration {
	iv := make([][2]time.Duration, 0, len(n.children))
	for _, c := range n.children {
		lo, hi := max(c.start, n.start), min(c.end, n.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, reach time.Duration
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			sum += x[1] - lo
		}
		reach = max(reach, x[1])
	}
	return sum
}

// layerOf charges a synthesis span to the layer metric family it belongs
// to. It returns "" for spans that belong to no layer: the benchmark's own
// root span and the zero-length cache-statistics span.
func layerOf(name string) string {
	switch {
	case name == "cleanup":
		return "core.cleanup"
	case strings.HasPrefix(name, "map:"):
		return "core.map"
	case name == "filter_bool", name == "filter_int":
		return "core.filter"
	case name == "merge":
		return "core.merge"
	case name == "pair":
		return "core.pair"
	case name == "union", name == "union_scalar":
		return "core.union"
	case name == "validate", name == "validate_worker":
		return "engine.validate"
	case name == "learn", strings.HasPrefix(name, "field:"), strings.HasPrefix(name, "ancestor:"):
		return "engine.driver"
	case name == "ls_replay":
		return "textlang.ls_replay"
	}
	return ""
}
