package main

import (
	"context"
	"testing"
	"time"

	"flashextract/internal/trace"
)

func TestProfileSelfTimeUnionsOverlappingChildren(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	// validate [0,100) has two overlapping workers, [10,50) and [30,70),
	// and a child that outlives it, [90,120); only [10,70) and [90,100)
	// are covered, so its self time is 30 ms, not 100-40-40-30 < 0.
	tree := spanNode{name: "sample", start: at(0), end: at(130), children: []spanNode{{
		name: "validate", start: at(0), end: at(100),
		children: []spanNode{
			{name: "validate_worker", start: at(10), end: at(50)},
			{name: "validate_worker", start: at(30), end: at(70)},
			{name: "cleanup", start: at(90), end: at(120)},
		},
	}}}
	p := profile{}
	p.add(tree, layerOf)
	want := map[string]layerTime{
		// validate (self 30) plus both workers (self 40 each).
		"engine.validate": {count: 3, total: at(180), self: at(110)},
		"core.cleanup":    {count: 1, total: at(30), self: at(30)},
	}
	if len(p) != len(want) {
		t.Fatalf("families = %v, want %v", p, want)
	}
	for family, w := range want {
		if got := p[family]; got == nil || *got != w {
			t.Errorf("%s = %+v, want %+v", family, got, w)
		}
	}
}

func TestNodeOfKeepsTheTraceTree(t *testing.T) {
	tr := trace.NewTracer()
	ctx, root := tr.StartRoot(context.Background(), "sample")
	_, child := trace.Start(ctx, "cleanup")
	child.End()
	root.End()
	n := nodeOf(root, root.Start())
	if n.start != 0 || n.end != root.Duration() || len(n.children) != 1 {
		t.Fatalf("root node = %+v", n)
	}
	c := n.children[0]
	if c.name != "cleanup" || c.start < 0 || c.end > n.end || c.end-c.start != child.Duration() {
		t.Errorf("child node = %+v", c)
	}
}
