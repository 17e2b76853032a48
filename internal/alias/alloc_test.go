package alias

import (
	"testing"

	"mmlpt/internal/packet"
)

// routersOf groups n candidate addresses into routers of three.
func routersOf(n int) [][]packet.Addr {
	var groups [][]packet.Addr
	for i := 1; i <= n; i += 3 {
		var g []packet.Addr
		for j := i; j < i+3 && j <= n; j++ {
			g = append(g, a(j))
		}
		groups = append(groups, g)
	}
	return groups
}

func TestMBTPathAllocatesNothing(t *testing.T) {
	o := synthObs(routersOf(6))
	ao, bo := o.Get(a(1)), o.Get(a(2))
	sa, sb := ao.IndirectSamples(), bo.IndirectSamples()
	if len(sa) == 0 || MBTVerdict(sa, sb) != Accepted {
		t.Fatalf("fixture: %d samples, verdict %v", len(sa), MBTVerdict(sa, sb))
	}
	for name, f := range map[string]func(){
		"MBTVerdict":      func() { MBTVerdict(sa, sb) },
		"IndirectSamples": func() { ao.IndirectSamples() },
		"DirectSamples":   func() { ao.DirectSamples() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// TestPartitionAllocsScaleWithGroupSize pins the per-call evidence table:
// Partition allocates per candidate and per set, never per candidate
// pair, so doubling a 24-address group to 48 (four times the pairs) at
// most doubles its allocations.
func TestPartitionAllocsScaleWithGroupSize(t *testing.T) {
	allocs := func(n int) float64 {
		groups := routersOf(n)
		r := &Resolver{Obs: synthObs(groups)}
		cands := addrsOf(groups)
		if got := len(RouterSets(r.Partition(cands))); got != len(groups) {
			t.Fatalf("n=%d: %d routers, want %d", n, got, len(groups))
		}
		return testing.AllocsPerRun(20, func() { r.Partition(cands) })
	}
	a24, a48 := allocs(24), allocs(48)
	t.Logf("Partition allocs: %v at 24 candidates, %v at 48", a24, a48)
	const n, pairs = 48, 48 * 47 / 2
	if a48 > 2*n {
		t.Errorf("48 candidates: %v allocs, want at most %d (2 per candidate; %d pairs)", a48, 2*n, pairs)
	}
	if a48 > 2.2*a24 {
		t.Errorf("allocs grew from %v at 24 candidates to %v at 48: faster than the group size", a24, a48)
	}
}
