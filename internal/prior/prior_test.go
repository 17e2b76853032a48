package prior

import (
	"path/filepath"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// twoPairAtlas builds a snapshot with two address-disjoint pairs: pair 0
// a 1-2-1 diamond, pair 1 a three-hop chain.
func twoPairAtlas(t *testing.T) (string, [2][2]packet.Addr, *topo.Graph) {
	t.Helper()
	g0 := topo.New()
	a := g0.AddVertex(0, packet.AddrFrom4(10, 0, 0, 1))
	b1 := g0.AddVertex(1, packet.AddrFrom4(10, 0, 0, 2))
	b2 := g0.AddVertex(1, packet.AddrFrom4(10, 0, 0, 3))
	c := g0.AddVertex(2, packet.AddrFrom4(203, 0, 113, 1))
	g0.AddEdge(a, b1)
	g0.AddEdge(a, b2)
	g0.AddEdge(b1, c)
	g0.AddEdge(b2, c)

	g1 := topo.New()
	x := g1.AddVertex(0, packet.AddrFrom4(10, 0, 1, 1))
	y := g1.AddVertex(1, packet.AddrFrom4(10, 0, 1, 2))
	z := g1.AddVertex(2, packet.AddrFrom4(203, 0, 113, 2))
	g1.AddEdge(x, y)
	g1.AddEdge(y, z)

	pairs := [2][2]packet.Addr{
		{packet.AddrFrom4(192, 0, 2, 1), packet.AddrFrom4(203, 0, 113, 1)},
		{packet.AddrFrom4(192, 0, 2, 2), packet.AddrFrom4(203, 0, 113, 2)},
	}
	al := atlas.New(atlas.Options{})
	for i, g := range []*topo.Graph{g0, g1} {
		vs, es := traceio.EncodeGraph(g)
		rec := &traceio.SurveyRecord{
			PairIndex: i,
			Trace: traceio.JSONTrace{
				Src: pairs[i][0].String(), Dst: pairs[i][1].String(),
				Algorithm: "mda-lite", Vertices: vs, Edges: es,
			},
		}
		if err := al.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "prior.atlas")
	if err := al.Save(path); err != nil {
		t.Fatal(err)
	}
	return path, pairs, g0
}

func TestFromServiceReconstructsPerPairTopology(t *testing.T) {
	path, pairs, g0 := twoPairAtlas(t)
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := FromService(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2 {
		t.Fatalf("indexed %d pairs, want 2", ix.Len())
	}
	pp := ix.Lookup(pairs[0][0], pairs[0][1])
	if pp == nil {
		t.Fatal("pair 0 missing from index")
	}
	if ix.Lookup(pairs[0][0], pairs[1][1]) != nil {
		t.Fatal("lookup of an unsurveyed pair must return nil")
	}
	if pp.NumHops() != 3 {
		t.Fatalf("pair 0 covers %d hops, want 3", pp.NumHops())
	}
	if got := pp.Width(1); got != 2 {
		t.Fatalf("pair 0 hop 1 width %d, want 2", got)
	}
	hop1, ok := pp.HopAddrs(1)
	if !ok || hop1[0] != packet.AddrFrom4(10, 0, 0, 2) || hop1[1] != packet.AddrFrom4(10, 0, 0, 3) {
		t.Fatalf("pair 0 hop 1 = %v (ok=%t), want sorted [10.0.0.2 10.0.0.3]", hop1, ok)
	}
	// Every edge of the source graph must be recorded; the cross pair
	// (10.0.0.2 → 10.0.1.2) must not.
	for h := 0; h+1 < g0.NumHops(); h++ {
		for _, v := range g0.Hop(h) {
			for _, w := range g0.Succ(v) {
				if !pp.HasEdge(g0.V(v).Addr, g0.V(w).Addr) {
					t.Fatalf("edge %s->%s missing from prior", g0.V(v).Addr, g0.V(w).Addr)
				}
			}
		}
	}
	if pp.HasEdge(packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 1, 2)) {
		t.Fatal("prior attributed an edge from another pair")
	}

	// A PairPrior satisfies the mda hook interface.
	var _ mda.TracePrior = pp
}

func TestFingerprintDeterministicAndContentSensitive(t *testing.T) {
	path, pairs, _ := twoPairAtlas(t)
	build := func() *Index {
		svc, err := serve.Open(path, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		ix, err := FromService(svc)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ across identical builds: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() == 0 {
		t.Fatal("fingerprint of a non-empty index is 0")
	}
	// Content change must move the digest.
	pp := b.Lookup(pairs[0][0], pairs[0][1])
	pp.AddHopAddr(3, packet.AddrFrom4(10, 9, 9, 9))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint unchanged after adding a hop expectation")
	}
	var empty *Index
	if empty.Fingerprint() != 0 || empty.Lookup(pairs[0][0], pairs[0][1]) != nil || empty.Len() != 0 {
		t.Fatal("nil index must fingerprint to 0 and look up to nil")
	}
}

func TestFlowHintCaptureOrderIndependent(t *testing.T) {
	pp := New(packet.AddrFrom4(192, 0, 2, 1), packet.AddrFrom4(203, 0, 113, 1))
	addr := packet.AddrFrom4(10, 0, 0, 2)
	pp.AddHopAddr(1, addr)
	pp.AddLanding(1, 300, addr)
	pp.AddLanding(1, 100, addr)
	pp.AddLanding(1, 300, addr) // duplicate
	pp.normalize()
	fs := pp.FlowHints(1, addr)
	if len(fs) != 2 || fs[0] != 100 || fs[1] != 300 {
		t.Fatalf("hints = %v, want [100 300]", fs)
	}
	if pp.FlowHints(0, addr) != nil {
		t.Fatal("hints for an unrecorded hop must be nil")
	}
}
