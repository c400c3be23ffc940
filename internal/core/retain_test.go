package core

import "testing"

func TestExtendsSpec(t *testing.T) {
	eq := func(a, b int) bool { return a == b }
	if !ExtendsSpec([]int{1, 2}, []int{1, 2, 3}, eq) {
		t.Fatal("superset rejected")
	}
	if !ExtendsSpec(nil, []int{1}, eq) {
		t.Fatal("empty old spec rejected")
	}
	if !ExtendsSpec([]int{2, 1}, []int{1, 2}, eq) {
		t.Fatal("order must not matter")
	}
	if ExtendsSpec([]int{1, 4}, []int{1, 2, 3}, eq) {
		t.Fatal("removed example accepted")
	}
}
