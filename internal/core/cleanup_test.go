package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// referenceCleanUp is CleanUp's ranking and pruning with every comparison
// made by IsSubsequence on the values themselves: the loop CleanUp ran
// before it compared outputs as spans. disable is DisableCleanUp.
func referenceCleanUp(ps []Program, exs []SeqExample, disable bool) []Program {
	ps = capList(ps)
	type cand struct {
		p    Program
		outs [][]Value
		cost int
		size int
	}
	var cands []cand
	for _, p := range ps {
		rows := make([][]Value, len(exs))
		size := 0
		ok := true
		for j, ex := range exs {
			out, okExec := execSeq(p, ex.State)
			if !okExec || !IsSubsequence(ex.Positive, out) {
				ok = false
				break
			}
			rows[j] = out
			size += len(out)
		}
		if ok {
			cands = append(cands, cand{p: p, outs: rows, cost: Cost(p), size: size})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].size < cands[j].size
	})
	var result []Program
	var keptOuts [][][]Value
	for _, c := range cands {
		dominated := false
		if !disable {
			for _, k := range keptOuts {
				contained := true
				for j := range exs {
					if len(k[j]) > len(c.outs[j]) || !IsSubsequence(k[j], c.outs[j]) {
						contained = false
						break
					}
				}
				if contained {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			result = append(result, c.p)
			keptOuts = append(keptOuts, c.outs)
		}
	}
	return result
}

// fuzzSpan is an Interval of one of two spaces; being a comparable struct
// that holds its space, it is Eq to another exactly when space and
// endpoints coincide, as the Interval contract asks.
type fuzzSpan struct {
	space      string
	start, end int
}

func (s fuzzSpan) Interval() (any, int, int) { return s.space, s.start, s.end }

// fuzzTag is an output value that is not an Interval.
type fuzzTag struct{ n int }

// fuzzCand is a candidate whose output on example j is rows[j], or an
// error when rows[j] is nil.
type fuzzCand struct {
	name string
	cost int
	rows [][]Value
}

func (c *fuzzCand) Exec(st State) (Value, error) {
	if row := c.rows[st.Input().(int)]; row != nil {
		return row, nil
	}
	return nil, errors.New("fuzz: candidate fails")
}

func (c *fuzzCand) String() string { return c.name }
func (c *fuzzCand) Cost() int      { return c.cost }

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzValue draws one output value: a plain int, a span of space "a" or
// "b", or a non-interval tag, over few enough endpoints that equal values
// and containments are common.
func fuzzValue(b *fuzzBytes) Value {
	v, lo := b.next(), b.next()%5
	switch v % 8 {
	case 0, 1:
		return lo
	case 2:
		return fuzzTag{lo}
	case 3:
		return fuzzSpan{"b", lo, lo + v%3}
	}
	return fuzzSpan{"a", lo, lo + v%3}
}

// fuzzRow draws a row: empty, a copy of an earlier candidate's row (equal
// outputs), failing, or up to seven values, kept unsorted, sorted in region
// order, or sorted with a repeat.
func fuzzRow(b *fuzzBytes, earlier []*fuzzCand, j int) []Value {
	op := b.next()
	switch op % 8 {
	case 0:
		return []Value{}
	case 1, 2:
		if len(earlier) > 0 {
			return earlier[b.next()%len(earlier)].rows[j]
		}
	case 3:
		if op%16 == 3 {
			return nil
		}
	}
	row := make([]Value, op/8%8)
	for i := range row {
		row[i] = fuzzValue(b)
	}
	if op%3 == 0 {
		sort.SliceStable(row, func(i, k int) bool {
			a, aok := row[i].(fuzzSpan)
			c, cok := row[k].(fuzzSpan)
			return aok && cok && (a.start < c.start || a.start == c.start && a.end > c.end)
		})
		if op%6 == 0 && len(row) > 0 {
			row = append(row, row[len(row)-1])
		}
	}
	return row
}

// FuzzCleanUp checks that CleanUp returns the reference's programs in the
// reference's order, with subsumption pruning on and off, over random
// candidates whose rows are unsorted, duplicated, empty, drawn from two
// spaces, made of plain ints, or holding a non-interval value, with equal
// outputs at equal and different costs.
func FuzzCleanUp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 9, 1, 40, 1, 2, 0, 2, 7, 3, 1, 0, 1, 1, 1, 2, 0, 1})
	f.Add([]byte{3, 4, 2, 56, 9, 0, 8, 1, 4, 2, 12, 3, 3, 1, 17, 2, 1, 1, 1, 9, 0, 1, 5, 2, 2, 1, 1, 0})
	f.Add([]byte("\x01\x08\x00\x30\x00\x01\x00\x01\x02\x00\x02\x02\x00\x02\x01\x00\x10\x00\x0b\x02\x00\x03\x00\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		nexs := 1 + b.next()%3
		ncands := b.next() % 24
		var cands []*fuzzCand
		for i := 0; i < ncands; i++ {
			c := &fuzzCand{name: fmt.Sprintf("c%d", i), cost: b.next() % 4, rows: make([][]Value, nexs)}
			for j := range c.rows {
				c.rows[j] = fuzzRow(&b, cands, j)
			}
			cands = append(cands, c)
		}
		exs := make([]SeqExample, nexs)
		for j := range exs {
			exs[j] = SeqExample{State: NewState(j)}
			if len(cands) == 0 {
				continue
			}
			// Positives are a subsequence of some candidate's row, so that
			// some candidates are consistent and some are not.
			for _, v := range cands[b.next()%len(cands)].rows[j] {
				if b.next()%3 == 0 {
					exs[j].Positive = append(exs[j].Positive, v)
				}
			}
		}
		ps := make([]Program, len(cands))
		for i, c := range cands {
			ps[i] = c
		}
		defer func() { DisableCleanUp = false }()
		for _, disable := range []bool{false, true} {
			DisableCleanUp = disable
			got := CleanUp(context.Background(), ps, exs)
			want := referenceCleanUp(ps, exs, disable)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("DisableCleanUp=%v: CleanUp = %v, reference = %v", disable, got, want)
			}
		}
	})
}

// pairwiseOverlaps is the overlap check PreferNonOverlapping ran on every
// row before it swept rows of Intervals: some two values of row overlap
// and are not Eq.
func pairwiseOverlaps(row []Value, overlaps func(a, b Value) bool) bool {
	for i := range row {
		for j := i + 1; j < len(row); j++ {
			if !Eq(row[i], row[j]) && overlaps(row[i], row[j]) {
				return true
			}
		}
	}
	return false
}

// TestRowOverlapsMatchesPairwise checks PreferNonOverlapping's overlap
// check, rowOverlaps, against pairwiseOverlaps on random rows of nested,
// equal, empty, adjacent and duplicated spans, in region order or not, of
// spans of two spaces, of spans with a value that is no Interval, and of
// ints, with one buffer reused across the rows. The overlap relation keeps
// the Interval contract on spans and holds for ints one apart, which no
// interval sweep would find, so int rows must take the pairwise loop.
func TestRowOverlapsMatchesPairwise(t *testing.T) {
	overlaps := func(a, b Value) bool {
		switch x := a.(type) {
		case fuzzSpan:
			y, ok := b.(fuzzSpan)
			return ok && x.space == y.space && x.start < y.end && y.start < x.end
		case int:
			y, ok := b.(int)
			return ok && (x-y == 1 || y-x == 1)
		}
		return false
	}
	rng := rand.New(rand.NewSource(7))
	var buf []span
	found := map[string]int{}
	for i := 0; i < 50000; i++ {
		kind := []string{"spans", "sorted", "two spaces", "with a tag", "ints"}[rng.Intn(5)]
		row := make([]Value, rng.Intn(8))
		for j := range row {
			start := rng.Intn(8)
			space := "a"
			switch {
			case kind == "ints":
				row[j] = start
				continue
			case kind == "two spaces" && rng.Intn(2) == 0:
				space = "b"
			case kind == "with a tag" && j == 0:
				row[j] = fuzzTag{start}
				continue
			}
			row[j] = fuzzSpan{space: space, start: start, end: start + rng.Intn(4)}
		}
		if len(row) > 2 && rng.Intn(3) == 0 {
			row[len(row)-1] = row[rng.Intn(len(row)-1)]
		}
		if kind == "sorted" {
			sort.Slice(row, func(i, j int) bool {
				a, b := row[i].(fuzzSpan), row[j].(fuzzSpan)
				return before(span{a.start, a.end}, span{b.start, b.end})
			})
		}
		want := pairwiseOverlaps(row, overlaps)
		if got := rowOverlaps(row, overlaps, &buf); got != want {
			t.Fatalf("%s row %v: rowOverlaps %v, pairwise %v", kind, row, got, want)
		}
		if want {
			found[kind]++
		}
	}
	if len(found) != 5 {
		t.Fatalf("overlapping rows by kind %v, want some of each", found)
	}
}
