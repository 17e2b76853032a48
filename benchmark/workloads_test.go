package main

import (
	"slices"
	"testing"
)

func TestApportion(t *testing.T) {
	for _, c := range []struct {
		sizes []int
		total int
		want  []int
	}{
		{[]int{1, 1, 1}, 3, []int{1, 1, 1}},
		{[]int{3, 3, 3}, 10, []int{4, 3, 3}}, // a tie goes to the earlier pool
		{[]int{965, 45, 47, 37, 1, 1}, 120, []int{106, 5, 5, 4, 0, 0}},
		{[]int{965, 45, 47, 37, 1, 1}, 100, []int{88, 4, 4, 4, 0, 0}},
		{[]int{5, 0}, 2, []int{2, 0}},
	} {
		if got := apportion(c.sizes, c.total); !slices.Equal(got, c.want) {
			t.Errorf("apportion(%v, %d) = %v, want %v", c.sizes, c.total, got, c.want)
		}
	}
}

// TestRouterUnitMix pins the router-survey mix README.md documents: the
// strata pools of the fixed Internet and the unit apportioned from them.
func TestRouterUnitMix(t *testing.T) {
	u, _, err := plan("router", routerUniversePairs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	strata := routerStrata(u)
	pools := make(map[string]int)
	for class, pairs := range strata {
		pools[class] = len(pairs)
	}
	wantPools := map[string]int{"": 965, "giant48": 45, "giant56": 47, "giant96": 37, "giant48+giant96": 1, "giant56+giant96": 1}
	if len(pools) != len(wantPools) {
		t.Errorf("strata pools %v, want %v", pools, wantPools)
	}
	for class, n := range wantPools {
		if pools[class] != n {
			t.Errorf("stratum %q holds %d pairs, want %d", class, pools[class], n)
		}
	}
	want := []stratum{{"giant96", 4}, {"giant56", 5}, {"giant48", 5}, {"", 106}}
	if got := routerUnit(strata, routerUnitPairs); !slices.Equal(got, want) {
		t.Errorf("router unit %v, want %v", got, want)
	}
}
