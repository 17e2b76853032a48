package alias_test

// Round-by-round equivalence of the production partition with the
// materialized oracle (oracle_test.go) on a width-48 giant core, driven
// through the multilevel tracer's own resolution loop.

import (
	"testing"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
)

var (
	gcSrc = packet.MustParseAddr("192.0.2.1")
	gcDst = packet.MustParseAddr("198.51.100.77")
)

// giantCore builds a path through a width-48 hop whose interfaces belong
// to routers of one to four interfaces, cycling through every IP ID
// model, several counter velocities, two fingerprints and constant and
// flapping MPLS labels, so a partition sees accepts, rejects and
// unusable series in one group. It returns the network and the routers'
// interface lists.
func giantCore(seed uint64) (*fakeroute.Network, [][]packet.Addr) {
	net := fakeroute.NewNetwork(seed)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.NewPathBuilder(alloc).Spread(48).Converge(1).End(gcDst)
	modes := []fakeroute.IPIDMode{
		fakeroute.IPIDShared, fakeroute.IPIDShared, fakeroute.IPIDPerInterface,
		fakeroute.IPIDConstantZero, fakeroute.IPIDShared, fakeroute.IPIDRandom,
		fakeroute.IPIDEchoCopy, fakeroute.IPIDIndirectZero,
	}
	var routers [][]packet.Addr
	hop := g.Hop(1)
	for i, k := 0, 0; i < len(hop); k++ {
		r := net.NewRouter()
		r.IPID = modes[k%len(modes)]
		r.Velocity = float64(k%4) * 0.5
		if k%5 == 4 {
			r.InitialTTLExceeded = 64
		}
		var addrs []packet.Addr
		for j := 0; j < 1+k%4 && i < len(hop); j++ {
			a := g.V(hop[i]).Addr
			ifc := net.AddIface(r, a)
			// Constant labels land on routers of every IP ID model, so
			// the MPLS test decides some sets the MBT cannot.
			switch {
			case k%3 == 0:
				ifc.MPLSLabel = uint32(100 + k)
			case k%6 == 1:
				ifc.MPLSLabel, ifc.LabelFlaps = uint32(100+k), true
			}
			addrs = append(addrs, a)
			i++
		}
		routers = append(routers, addrs)
	}
	net.EnsureIfaces(g, gcDst)
	net.AddPath(gcSrc, gcDst, g)
	return net, routers
}

func TestPartitionMatchesOracleEveryRoundGiantCore(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		net, _ := giantCore(seed)
		res := core.Trace(probe.NewSimProber(net, gcSrc, gcDst), core.Options{Trace: mda.Config{Seed: seed}})

		// Replay the tracer's resolution loop on a fresh copy of the
		// network, holding each round's partition to the oracle and to
		// what core.Trace reported for that round.
		net, routers := giantCore(seed)
		p := probe.NewSimProber(net, gcSrc, gcDst)
		o := obs.New()
		ip := mdalite.Trace(p, mda.Config{Seed: seed, Obs: o}, mdalite.DefaultPhi)
		groups := core.CandidateGroups(ip.Graph, gcDst)
		widest := 0
		for _, g := range groups {
			widest = max(widest, len(g))
		}
		if widest != 48 {
			t.Fatalf("seed %d: widest candidate group %d, want the 48-wide core", seed, widest)
		}
		r := alias.NewResolver(p, o)
		if len(res.Rounds) != r.Rounds+1 {
			t.Fatalf("seed %d: core.Trace reported %d rounds, want %d", seed, len(res.Rounds), r.Rounds+1)
		}
		outcomes := map[alias.Outcome]int{}
		for round := 0; round <= r.Rounds; round++ {
			for _, g := range groups {
				if round == 1 {
					r.FingerprintRound(g)
				}
				if round > 0 {
					r.ProbeRound(g)
				}
			}
			var got, want []alias.Set
			for _, g := range groups {
				got = append(got, r.Partition(g)...)
				want = append(want, alias.OraclePartition(r, g)...)
			}
			if err := alias.SamePartition(got, want); err != nil {
				t.Fatalf("seed %d round %d: partition vs oracle: %v", seed, round, err)
			}
			if err := alias.SamePartition(got, res.Rounds[round].Sets); err != nil {
				t.Fatalf("seed %d round %d: replay vs core.Trace: %v", seed, round, err)
			}
			for _, rt := range routers {
				if got, want := r.ClassifySet(rt), alias.OracleClassifySet(r, rt); got != want {
					t.Fatalf("seed %d round %d: ClassifySet(%v)=%v, oracle %v", seed, round, rt, got, want)
				}
				outcomes[r.ClassifySet(rt)]++
			}
		}
		// The core must exercise every verdict, or the equivalence is
		// vacuous for the ones it misses.
		for _, oc := range []alias.Outcome{alias.Accepted, alias.Rejected, alias.Unable} {
			if outcomes[oc] == 0 {
				t.Errorf("seed %d: no router set classified %v: %v", seed, oc, outcomes)
			}
		}
	}
}
