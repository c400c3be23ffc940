package main

import "testing"

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{96, 97, 98, 99, 100, 100, 101, 102, 103, 104}
	for _, c := range []struct {
		name         string
		change       []float64
		wins, losses int
		hasBound     bool
		want         string
	}{
		{"clear gain", []float64{80, 81, 82, 83, 84, 85, 86, 87, 88, 89}, 10, 0, true, "better"},
		{"gain on too few pairs", []float64{80, 81, 82, 83, 84, 85, 86, 87, 88, 89}, 8, 2, true, "unchanged"},
		{"beyond the bound", []float64{120, 121, 122, 123, 124, 125, 126, 127, 128, 129}, 0, 10, true, "worse"},
		{"within the bound", []float64{101, 102, 103, 104, 105, 105, 106, 107, 108, 109}, 1, 9, true, "unchanged"},
		{"layer slowed", []float64{120, 121, 122, 123, 124, 125, 126, 127, 128, 129}, 0, 10, false, "worse"},
		{"noisy", []float64{60, 70, 80, 90, 100, 100, 110, 120, 130, 140}, 5, 5, true, "unresolved"},
	} {
		got := verdict(parent, c.change, c.wins, c.losses, len(parent), "lower", 0.1, c.hasBound)
		if got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
