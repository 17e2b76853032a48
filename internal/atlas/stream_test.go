package atlas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// genAtlas synthesizes a randomized survey-shaped atlas with the PR 5
// topology generator: multipath routes of chained diamonds, per-hop
// alias sets, a census entry and a pair identity per route.
// Deterministic in (seed, pairs, opt).
func genAtlas(tb testing.TB, seed uint64, pairs int, opt Options) *Atlas {
	tb.Helper()
	a := New(opt)
	rng := nprand.New(seed)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	dstAlloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(203, 0, 113, 1))
	spec := fakeroute.GenSpec{
		Diamonds: 2, WidthMin: 2, WidthMax: 4, LenMin: 2, LenMax: 4,
		MeshProb: 0.3, AsymProb: 0.3, StarProb: 0.1,
	}
	for i := 0; i < pairs; i++ {
		dst := dstAlloc.Next()
		gp := fakeroute.GenerateMultipath(rng.Fork(uint64(i)), alloc, dst, spec)
		g := gp.Graph
		a.AddGraph(i, g)
		byHop := make(map[int][]packet.Addr)
		var first, last packet.Addr
		for vi := range g.Vertices {
			v := &g.Vertices[vi]
			if v.Addr == topo.StarAddr {
				continue
			}
			if first == 0 {
				first = v.Addr
			}
			last = v.Addr
			byHop[v.Hop] = append(byHop[v.Hop], v.Addr)
		}
		for _, set := range byHop {
			if len(set) >= 2 {
				a.AddAliasSet(set)
			}
		}
		a.AddDiamond(i, traceio.SurveyDiamond{
			Div: first.String(), Conv: last.String(), MaxWidth: 3, MaxLength: 3,
		})
		err := a.MergeSnapshot(&snapshot{
			Pairs: []traceio.AtlasPair{{Pair: i, Src: "192.0.2.1", Dst: dst.String()}},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return a
}

func writeTo(tb testing.TB, a *Atlas) []byte {
	tb.Helper()
	var buf bytes.Buffer
	n, err := a.WriteTo(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if n != int64(buf.Len()) {
		tb.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// The streaming encode is byte-identical to the materialized oracle
// (the serial encode over Snapshot) — for the empty atlas, a handmade
// atlas, and a generator-survey atlas.
func TestWriteToMatchesMaterializedEncode(t *testing.T) {
	t.Parallel()
	cases := map[string]*Atlas{
		"empty": New(Options{}),
		"gen":   genAtlas(t, 11, 40, Options{}),
	}
	hand := New(Options{})
	hand.AddGraph(0, chain(0xa000001, 0, 0xa000003))
	hand.AddGraph(1, chain(0xa000003, 0xa000001))
	hand.AddAliasSet([]packet.Addr{0xa000001, 0xa000003})
	cases["hand"] = hand

	for name, a := range cases {
		var want bytes.Buffer
		if err := encodeSnapshot(&want, a.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if got := writeTo(t, a); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: WriteTo differs from the materialized encode", name)
		}
	}
}

// The byte-determinism property: every merge worker count x ingestion
// shard count produces identical snapshot bytes, across randomized
// generator topologies.
func TestWriteToDeterministicAcrossWorkersAndShards(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 2, 3} {
		var want []byte
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, shards := range []int{1, 16, 64} {
				a := genAtlas(t, seed, 25, Options{Shards: shards, MergeWorkers: workers})
				got := writeTo(t, a)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: bytes differ at workers=%d shards=%d", seed, workers, shards)
				}
			}
		}
	}
}

// saveDelta persists one atlas to dir and returns the path.
func saveDelta(tb testing.TB, dir, name string, a *Atlas) string {
	tb.Helper()
	path := filepath.Join(dir, name)
	if err := a.Save(path); err != nil {
		tb.Fatal(err)
	}
	return path
}

// The compaction pin: the streaming k-way Compact is byte-identical to
// the materialized oracle — decode every input whole, MergeSnapshot it
// into a fresh atlas, encode materialized. Inputs overlap addresses, routers,
// census entries and pair indices; tested serial and parallel, with and
// without a base.
func TestCompactMatchesMergeSnapshotPath(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Same allocator bases across seeds: the three inputs share many
	// addresses, so merging actually unions rather than concatenates.
	inputs := []string{
		saveDelta(t, dir, "in0.atlas", genAtlas(t, 5, 30, Options{})),
		saveDelta(t, dir, "in1.atlas", genAtlas(t, 6, 20, Options{})),
		saveDelta(t, dir, "in2.atlas", genAtlas(t, 7, 10, Options{})),
	}

	want := New(Options{})
	for _, p := range inputs {
		s, err := readSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.MergeSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	var wantBuf bytes.Buffer
	if err := encodeSnapshot(&wantBuf, want.Snapshot()); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		for _, withBase := range []bool{true, false} {
			name := fmt.Sprintf("out_w%d_b%v.atlas", workers, withBase)
			out := filepath.Join(dir, name)
			base, deltas := "", inputs
			if withBase {
				base, deltas = inputs[0], inputs[1:]
			}
			err := Compact(out, base, deltas, Options{MergeWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBuf.Bytes()) {
				t.Fatalf("workers=%d base=%v: compact bytes differ from MergeSnapshot path", workers, withBase)
			}
		}
	}
}

func TestCompactEmptyInput(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	in := saveDelta(t, dir, "empty.atlas", New(Options{}))
	out := filepath.Join(dir, "out.atlas")
	if err := Compact(out, "", []string{in}, Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := encodeSnapshot(&want, New(Options{}).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("compacting an empty input differs from the empty encode")
	}
}

// Census and Routers sort outside the atlas lock; a concurrent ingester
// must neither race with them (run with -race) nor corrupt their
// canonical order.
func TestQueriesDuringConcurrentIngest(t *testing.T) {
	t.Parallel()
	a := New(Options{Shards: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			base := uint32(0xa000000 + i*8)
			a.AddGraph(i, chain(base, base+1, base+2))
			a.AddAliasSet([]packet.Addr{packet.Addr(base), packet.Addr(base + 1)})
			a.AddDiamond(i, traceio.SurveyDiamond{Div: "10.0.0.1", Conv: "10.0.0.2", MaxWidth: 2, MaxLength: 2})
		}
	}()
	for i := 0; i < 200; i++ {
		for _, g := range a.Routers() {
			for j := 1; j < len(g); j++ {
				if g[j-1] >= g[j] {
					t.Errorf("router group out of order: %v", g)
				}
			}
		}
		ds := a.Census()
		for j := 1; j < len(ds); j++ {
			if ds[j-1].Div > ds[j].Div || (ds[j-1].Div == ds[j].Div && ds[j-1].Conv >= ds[j].Conv) {
				t.Errorf("census out of order at %d", j)
			}
		}
		a.Provenance(packet.Addr(0xa000000 + uint32(i)*8))
	}
	close(stop)
	wg.Wait()
	// The atlas must still produce a canonical snapshot after the mixed
	// load: ingest everything again into a fresh atlas and compare.
	b := New(Options{Shards: 1})
	if err := b.MergeSnapshot(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(writeTo(t, a), writeTo(t, b)) {
		t.Fatal("post-ingest snapshot not canonical")
	}
}

// Provenance canonicalizes a node's observations once and then serves
// copies until new observations arrive.
func TestProvenanceLazyCanonicalization(t *testing.T) {
	a := New(Options{})
	a.AddGraph(3, chain(0xa000001, 0xa000002))
	a.AddGraph(1, chain(0xa000001, 0xa000002))
	a.AddGraph(1, chain(0xa000001, 0xa000002)) // duplicate: must dedup
	addr := packet.Addr(0xa000001)

	want := []Obs{{Pair: 1, Hop: 0}, {Pair: 3, Hop: 0}}
	got, ok := a.Provenance(addr)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Provenance = %v, %v; want %v, true", got, ok, want)
	}
	// Steady state: no re-sort, just the defensive copy.
	allocs := testing.AllocsPerRun(100, func() { a.Provenance(addr) })
	if allocs > 2 {
		t.Errorf("steady-state Provenance allocates %.0f times per call; want <= 2 (copy only)", allocs)
	}
	// New observations re-dirty the node and are folded back in sorted.
	a.AddGraph(0, chain(0xa000001))
	want = append([]Obs{{Pair: 0, Hop: 0}}, want...)
	if got, _ := a.Provenance(addr); !reflect.DeepEqual(got, want) {
		t.Fatalf("after new obs: Provenance = %v; want %v", got, want)
	}
}

// FuzzEncodeAtlasStream cross-checks the two encode paths on arbitrary
// snapshot bytes: whenever the input decodes whole, rebuilding an atlas
// from it must stream exactly the bytes the materialized encoder
// produces.
func FuzzEncodeAtlasStream(f *testing.F) {
	var seed bytes.Buffer
	if err := encodeSnapshot(&seed, genAtlas(f, 9, 3, Options{}).Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	var empty bytes.Buffer
	if err := encodeSnapshot(&empty, New(Options{}).Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.atlas")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := readSnapshot(path)
		if err != nil {
			t.Skip()
		}
		a, err := FromSnapshot(s, Options{MergeWorkers: 2})
		if err != nil {
			t.Skip()
		}
		var want bytes.Buffer
		if err := encodeSnapshot(&want, a.Snapshot()); err != nil {
			t.Fatalf("materialized encode: %v", err)
		}
		var got bytes.Buffer
		if _, err := a.WriteTo(&got); err != nil {
			t.Fatalf("streamed encode: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("streamed and materialized encodes differ")
		}
	})
}
