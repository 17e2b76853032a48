package atlas

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// chain builds a hop-aligned path graph from addresses (0 = star).
func chain(addrs ...uint32) *topo.Graph {
	g := topo.New()
	prev := topo.None
	for h, a := range addrs {
		v := g.AddVertex(h, packet.Addr(a))
		if prev != topo.None {
			g.AddEdge(prev, v)
		}
		prev = v
	}
	return g
}

func encode(t *testing.T, a *Atlas) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Merging two traces that disagree on hop positions: the shared address
// gets one node with per-source annotations, not two hop-keyed copies.
func TestMergeIsAddressKeyed(t *testing.T) {
	t.Parallel()
	a := New(Options{Shards: 4})
	a.AddGraph(0, chain(10, 20, 30))
	a.AddGraph(1, chain(40, 41, 20, 31)) // 20 at hop 2 here, hop 1 in pair 0
	m := a.Merged()
	if m.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", m.NumNodes())
	}
	id := m.Lookup(20)
	if id == topo.None {
		t.Fatal("address 20 missing")
	}
	want := []Obs{{Pair: 0, Hop: 1}, {Pair: 1, Hop: 2}}
	if !reflect.DeepEqual(m.Seen(id), want) {
		t.Fatalf("Seen(20) = %v, want %v", m.Seen(id), want)
	}
	if got, ok := a.Provenance(20); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Provenance(20) = %v, %v", got, ok)
	}
	if _, ok := a.Provenance(99); ok {
		t.Fatal("unknown address must report absent")
	}
	// Edges from both traces, deduplicated by (from, to) address.
	if m.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", m.NumEdges())
	}
	if m.OutDegree(id) != 2 { // 20→30 and 20→31
		t.Fatalf("OutDegree(20) = %d, want 2", m.OutDegree(id))
	}
}

// Stars have no address: they contribute neither nodes nor edges.
func TestStarsAreSkipped(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	a.AddGraph(0, chain(10, 0, 30))
	m := a.Merged()
	if m.NumNodes() != 2 || m.NumEdges() != 0 {
		t.Fatalf("nodes=%d edges=%d, want 2 and 0", m.NumNodes(), m.NumEdges())
	}
}

// Snapshot bytes must not depend on shard count or ingestion order.
func TestSnapshotCanonicalAcrossShardsAndOrder(t *testing.T) {
	t.Parallel()
	graphs := []*topo.Graph{
		chain(10, 20, 30),
		chain(40, 20, 31),
		chain(50, 51, 52, 30),
	}
	build := func(shards int, order []int) *Atlas {
		a := New(Options{Shards: shards})
		for _, i := range order {
			a.AddGraph(i, graphs[i])
		}
		a.AddAliasSet([]packet.Addr{20, 31})
		a.AddDiamond(1, traceio.SurveyDiamond{Div: "0.0.0.40", Conv: "0.0.0.31", MaxWidth: 2, MaxLength: 2})
		return a
	}
	ref := encode(t, build(1, []int{0, 1, 2}))
	for _, shards := range []int{2, 7, 64} {
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
			if got := encode(t, build(shards, order)); !bytes.Equal(got, ref) {
				t.Fatalf("snapshot differs at shards=%d order=%v", shards, order)
			}
		}
	}
}

// Concurrent ingestion of disjoint pairs yields the same snapshot as a
// serial walk.
func TestConcurrentIngestDeterministic(t *testing.T) {
	t.Parallel()
	mk := func() []*topo.Graph {
		var gs []*topo.Graph
		for i := 0; i < 32; i++ {
			base := uint32(100 + i*3)
			gs = append(gs, chain(base, base+1, base+2, 77))
		}
		return gs
	}
	serial := New(Options{Shards: 4})
	for i, g := range mk() {
		serial.AddGraph(i, g)
	}
	conc := New(Options{Shards: 4})
	var wg sync.WaitGroup
	for i, g := range mk() {
		wg.Add(1)
		go func(i int, g *topo.Graph) {
			defer wg.Done()
			conc.AddGraph(i, g)
		}(i, g)
	}
	wg.Wait()
	if !bytes.Equal(encode(t, serial), encode(t, conc)) {
		t.Fatal("concurrent ingestion changed the snapshot")
	}
}

// Alias evidence accumulates across traces: sets sharing an address
// merge into one growing router.
func TestRouterIdentitiesGrow(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	a.AddAliasSet([]packet.Addr{10, 11})
	if got := a.RouterSizes(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("RouterSizes = %v", got)
	}
	a.AddAliasSet([]packet.Addr{11, 12})
	a.AddAliasSet([]packet.Addr{20, 21})
	if got := a.RouterSizes(); !reflect.DeepEqual(got, []int{3, 2}) {
		t.Fatalf("RouterSizes = %v, want [3 2]", got)
	}
	routers := a.Routers()
	if !reflect.DeepEqual(routers[0], []packet.Addr{10, 11, 12}) {
		t.Fatalf("Routers[0] = %v", routers[0])
	}
}

// Census accumulates encounters per distinct (div, conv) key.
func TestDiamondCensus(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	d := traceio.SurveyDiamond{Div: "0.0.0.1", Conv: "0.0.0.9", MaxWidth: 2, MaxLength: 2}
	a.AddDiamond(4, d)
	d.MaxWidth = 5
	a.AddDiamond(2, d)
	a.AddDiamond(2, d)
	c := a.Census()
	if len(c) != 1 {
		t.Fatalf("census has %d entries, want 1", len(c))
	}
	want := traceio.AtlasDiamond{
		Div: "0.0.0.1", Conv: "0.0.0.9", Count: 3, Pairs: []int{2, 4},
		MaxWidth: 5, MaxLength: 2,
	}
	if !reflect.DeepEqual(c[0], want) {
		t.Fatalf("census = %+v, want %+v", c[0], want)
	}
}

// A saved snapshot is a fixed point of the merge: compacting it alone
// rewrites it byte for byte, serially and in parallel.
func TestSaveLoadByteStable(t *testing.T) {
	t.Parallel()
	a := New(Options{Shards: 3})
	a.AddGraph(0, chain(10, 20, 30))
	a.AddGraph(2, chain(40, 20, 31))
	a.AddAliasSet([]packet.Addr{20, 31})
	a.AddDiamond(0, traceio.SurveyDiamond{Div: "0.0.0.10", Conv: "0.0.0.30", MaxWidth: 3, MaxLength: 2})
	dir := t.TempDir()
	in := filepath.Join(dir, "in.atlas")
	if err := a.Save(in); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		out := filepath.Join(dir, "out.atlas")
		if err := Compact(out, in, nil, Options{MergeWorkers: workers}); err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("workers=%d: compacting one snapshot changed its bytes:\n%s\nvs\n%s", workers, first, second)
		}
	}
}
