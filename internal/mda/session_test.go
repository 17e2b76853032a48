package mda

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

func TestGlobalStoppingPoints(t *testing.T) {
	// With a branch budget of 1 the global bound equals the per-vertex
	// bound.
	if got, want := GlobalStoppingPoints(0.05, 1, 4), Default95(4); got[1] != want[1] {
		t.Fatalf("branch=1: %v vs %v", got, want)
	}
	// A bigger branch budget means a tighter per-vertex bound and larger
	// stopping points.
	loose := Default95(4)
	tight := GlobalStoppingPoints(0.05, 30, 4)
	for k := 1; k <= 4; k++ {
		if tight[k] <= loose[k] {
			t.Fatalf("n_%d: global-30 table %d not above per-vertex %d", k, tight[k], loose[k])
		}
	}
}

func TestStoppingPointsStrictlyIncreasing(t *testing.T) {
	for _, eps := range []float64{0.2, 0.05, 0.01, 1.0 / 256} {
		nk := StoppingPoints(eps, 40)
		for k := 1; k < len(nk); k++ {
			if nk[k] <= nk[k-1] {
				t.Fatalf("eps=%v: n_%d=%d not above n_%d=%d", eps, k, nk[k], k-1, nk[k-1])
			}
		}
	}
}

func TestStoppingPointsPanics(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%v: no panic", eps)
				}
			}()
			StoppingPoints(eps, 4)
		}()
	}
}

func TestEnsureFlows(t *testing.T) {
	net, _ := fakeroute.BuildScenario(51, testSrc, testDst, fakeroute.Fig1UnmeshedDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	s := NewSession(p, Config{Seed: 51})
	s.DiscoverSuccessors(Source, 0)
	s.DiscoverSuccessors(s.G.Hop(0)[0], 1)
	if s.G.Width(1) != 4 {
		t.Fatalf("hop 1 width %d", s.G.Width(1))
	}
	v := s.G.Hop(1)[0]
	if !s.EnsureFlows(v, 9) {
		t.Fatal("EnsureFlows failed")
	}
	if len(s.FlowsOf(v)) < 9 {
		t.Fatalf("flows %d, want >= 9", len(s.FlowsOf(v)))
	}
	// All minted flows must actually map to v at hop 1.
	for _, f := range s.FlowsOf(v) {
		if w, ok := s.VertexAt(1, f); !ok || w != v {
			t.Fatalf("flow %d maps to %v, want %v", f, w, v)
		}
	}
}

func TestSessionReset(t *testing.T) {
	net, _ := fakeroute.BuildScenario(52, testSrc, testDst, fakeroute.SimplestDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	s := NewSession(p, Config{Seed: 52})
	s.RunMDA(0)
	probesBefore := s.ProbesSent()
	if probesBefore == 0 || s.G.NumVertices() == 0 {
		t.Fatal("first run empty")
	}
	s.Reset()
	if s.G.NumVertices() != 0 || s.DstHop() != -1 {
		t.Fatal("reset incomplete")
	}
	s.RunMDA(0)
	if s.ProbesSent() <= probesBefore {
		t.Fatal("probe accounting lost across reset")
	}
	if !s.HopDone(s.DstHop()) {
		t.Fatal("second run did not finish")
	}
}

func TestTraceMaxTTLTermination(t *testing.T) {
	// A path that never reaches the destination (dead end) must stop at
	// MaxTTL rather than loop.
	net := fakeroute.NewNetwork(53)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	// The path's final hop is the destination per AddPath's contract, but
	// with LossProb=1 beyond nothing ever answers.
	g := fakeroute.NewPathBuilder(alloc).Chain(2).End(testDst)
	net.EnsureIfaces(g, testDst)
	net.AddPath(testSrc, testDst, g)
	net.LossProb = 1
	p := probe.NewSimProber(net, testSrc, testDst)
	p.Retries = 0
	res := Trace(p, Config{Seed: 53, MaxTTL: 8})
	if res.ReachedDst {
		t.Fatal("reached under total loss")
	}
	if res.Graph.NumHops() > 9 {
		t.Fatalf("trace ran past MaxTTL: %d hops", res.Graph.NumHops())
	}
}

func TestTraceThroughStarHop(t *testing.T) {
	net := fakeroute.NewNetwork(54)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.NewPathBuilder(alloc).Chain(1).Star().Chain(1).End(testDst)
	net.EnsureIfaces(g, testDst)
	net.AddPath(testSrc, testDst, g)
	p := probe.NewSimProber(net, testSrc, testDst)
	p.Retries = 0
	res := Trace(p, Config{Seed: 54})
	if !res.ReachedDst {
		t.Fatalf("did not reach destination through star:\n%s", res.Graph)
	}
	foundStar := false
	for i := range res.Graph.Vertices {
		if res.Graph.Vertices[i].Addr == topo.StarAddr {
			foundStar = true
		}
	}
	if !foundStar {
		t.Fatal("star hop not recorded")
	}
}

func TestObservationsCollectedDuringTrace(t *testing.T) {
	net, path := fakeroute.BuildScenario(55, testSrc, testDst, fakeroute.SimplestDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	o := obs.New()
	Trace(p, Config{Seed: 55, Obs: o})
	// Every responsive hop address must have observations with flows.
	for i := range path.Graph.Vertices {
		a := path.Graph.Vertices[i].Addr
		if a == testDst || a == topo.StarAddr {
			continue
		}
		ao := o.Get(a)
		if ao == nil {
			t.Fatalf("no observations for %s", a)
		}
		if len(ao.IndirectSamples()) == 0 || len(ao.Flows) == 0 {
			t.Fatalf("empty observations for %s", a)
		}
		if len(ao.DirectSamples()) != 0 {
			t.Fatal("trace produced a direct sample")
		}
	}
}

// TestMDADiscoveredIsSubgraphOfTruth: the tracer must never invent
// vertices or edges (property over seeds).
func TestMDADiscoveredIsSubgraphOfTruth(t *testing.T) {
	builds := []func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph{
		fakeroute.Fig1UnmeshedDiamond, fakeroute.Fig1MeshedDiamond,
		fakeroute.SymmetricDiamond, fakeroute.AsymmetricDiamond,
	}
	for seed := uint64(0); seed < 8; seed++ {
		for bi, build := range builds {
			net, path := fakeroute.BuildScenario(seed, testSrc, testDst, build)
			p := probe.NewSimProber(net, testSrc, testDst)
			res := Trace(p, Config{Seed: seed})
			// Reverse coverage: every discovered vertex/edge exists in
			// the ground truth.
			v, e := topo.SubgraphCoverage(path.Graph, res.Graph)
			if v != 1 || e != 1 {
				t.Fatalf("seed %d build %d: tracer invented topology (truth covers v=%.2f e=%.2f of it)\ntruth:\n%s\ngot:\n%s",
					seed, bi, v, e, path.Graph, res.Graph)
			}
		}
	}
}

func TestRunMDASurvivesRouteChange(t *testing.T) {
	net := fakeroute.NewNetwork(56)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	before := fakeroute.Fig1UnmeshedDiamond(alloc, testDst)
	after := fakeroute.SimplestDiamond(alloc, testDst)
	net.EnsureIfaces(before, testDst)
	net.EnsureIfaces(after, testDst)
	path := net.AddPath(testSrc, testDst, before)
	path.Alt = after
	path.AltAt = 30
	p := probe.NewSimProber(net, testSrc, testDst)
	res := Trace(p, Config{Seed: 56})
	if !res.ReachedDst {
		t.Fatalf("route change broke the trace:\n%s", res.Graph)
	}
}
