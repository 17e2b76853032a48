package alias

// The materialized oracle for the Monotonic Bounds Test and the partition:
// the sort-based merge and the map-memoized, per-pair evidence lookups the
// linear MBT and the per-call evidence table replaced. The equivalence
// tests here and in giantcore_test.go hold the production path to it.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
)

// oracleMerge interleaves two series by sequence number with a full sort.
// The sort is stable, so on equal Seq the samples of a come first; on
// distinct Seqs, the only case the tracers record, it orders exactly as
// the unstable sort it stands in for.
func oracleMerge(a, b []obs.Sample) []obs.Sample {
	out := make([]obs.Sample, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func oracleMBTVerdict(a, b []obs.Sample) Outcome {
	if len(a) == 0 || len(b) == 0 {
		return Unable
	}
	if a[len(a)-1].Seq < b[0].Seq || b[len(b)-1].Seq < a[0].Seq {
		return Unable
	}
	if Monotonic(oracleMerge(a, b)) {
		return Accepted
	}
	return Rejected
}

// oraclePairVerdict looks every piece of evidence up again for each pair.
func oraclePairVerdict(r *Resolver, a, b packet.Addr) Evidence {
	var ev Evidence
	ao, bo := r.Obs.Get(a), r.Obs.Get(b)
	if ao == nil || bo == nil {
		return ev
	}
	if !obs.CompatibleFingerprints(ao.FingerprintOf(), bo.FingerprintOf()) {
		ev.Fingerprint = Rejected
	}
	if la, oka := ao.ConstantLabel(); oka {
		if lb, okb := bo.ConstantLabel(); okb {
			if la == lb {
				ev.MPLS = Accepted
			} else {
				ev.MPLS = Rejected
			}
		}
	}
	sa, sb := r.samples(ao), r.samples(bo)
	uA, _ := SeriesUsable(sa, r.Direct)
	uB, _ := SeriesUsable(sb, r.Direct)
	if uA && uB {
		ev.MBT = oracleMBTVerdict(sa, sb)
	}
	return ev
}

func oraclePartition(r *Resolver, candidates []packet.Addr) []Set {
	sorted := append([]packet.Addr(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var groups [][]packet.Addr
	verdict := make(map[[2]packet.Addr]Outcome)
	pv := func(a, b packet.Addr) Outcome {
		k := [2]packet.Addr{a, b}
		if a > b {
			k = [2]packet.Addr{b, a}
		}
		if v, ok := verdict[k]; ok {
			return v
		}
		v := oraclePairVerdict(r, a, b).Combine()
		verdict[k] = v
		return v
	}
	for _, a := range sorted {
		placed := false
		for gi, g := range groups {
			ok := true
			positive := false
			for _, m := range g {
				switch pv(a, m) {
				case Rejected:
					ok = false
				case Accepted:
					positive = true
				}
				if !ok {
					break
				}
			}
			if ok && positive {
				groups[gi] = append(groups[gi], a)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []packet.Addr{a})
		}
	}
	out := make([]Set, 0, len(groups))
	for _, g := range groups {
		s := Set{Addrs: g, Outcome: Accepted}
		if len(g) < 2 {
			s.Outcome = Unable
			if u, _ := r.AddrUsable(g[0]); u {
				s.Outcome = Accepted
			}
			out = append(out, s)
			continue
		}
		for i := 0; i < len(g) && s.Outcome == Accepted; i++ {
			for j := i + 1; j < len(g); j++ {
				if pv(g[i], g[j]) != Accepted {
					s.Outcome = Unable
					break
				}
			}
		}
		out = append(out, s)
	}
	return out
}

func oracleClassifySet(r *Resolver, addrs []packet.Addr) Outcome {
	if len(addrs) < 2 {
		return Unable
	}
	sawUnable := false
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			switch oraclePairVerdict(r, addrs[i], addrs[j]).Combine() {
			case Rejected:
				return Rejected
			case Unable:
				sawUnable = true
			}
		}
	}
	if sawUnable {
		return Unable
	}
	return Accepted
}

// OraclePartition and OracleClassifySet expose the oracle to the external
// test package, which can import the tracers that import this one.
func OraclePartition(r *Resolver, candidates []packet.Addr) []Set {
	return oraclePartition(r, candidates)
}

func OracleClassifySet(r *Resolver, addrs []packet.Addr) Outcome {
	return oracleClassifySet(r, addrs)
}

// seriesPair is one generated MBT input with the family it was drawn from.
type seriesPair struct {
	family string
	a, b   []obs.Sample
}

// genSeriesPair draws a pair of Seq-sorted series. The layout decides
// which series each merged slot goes to and the counter model decides the
// IP IDs; Seqs are distinct unless the layout makes the windows touch.
func genSeriesPair(rng *rand.Rand) seriesPair {
	layouts := []string{"alternating", "block", "random", "disjoint", "adjacent", "touch", "single"}
	models := []string{"shared", "wrap", "zerosteps", "constant", "independent", "noisy"}
	layout := layouts[rng.Intn(len(layouts))]
	model := models[rng.Intn(len(models))]
	n := 3 + rng.Intn(40)

	// Slot owners in merged order: true for a.
	owner := make([]bool, n)
	switch layout {
	case "alternating":
		start := rng.Intn(2) == 0
		for i := range owner {
			owner[i] = (i%2 == 0) == start
		}
	case "block":
		cur := rng.Intn(2) == 0
		for i := 0; i < n; {
			run := 1 + rng.Intn(6)
			for k := 0; k < run && i < n; k++ {
				owner[i] = cur
				i++
			}
			cur = !cur
		}
	case "random":
		for i := range owner {
			owner[i] = rng.Intn(2) == 0
		}
	case "disjoint", "adjacent", "touch":
		cut := 1 + rng.Intn(n-1)
		first := rng.Intn(2) == 0
		for i := range owner {
			owner[i] = (i < cut) == first
		}
	case "single":
		// One series holds a single sample, anywhere in the other's
		// window or at its ends.
		lone := rng.Intn(2) == 0
		pos := rng.Intn(n)
		for i := range owner {
			owner[i] = (i == pos) == lone
		}
	}

	// IP IDs in merged order.
	ids := make([]uint16, n)
	other := uint16(rng.Intn(1 << 16))
	id := uint16(rng.Intn(1 << 16))
	if model == "wrap" {
		id = uint16(65535 - rng.Intn(3*n))
	}
	for i := range ids {
		switch model {
		case "shared", "wrap":
			id += uint16(1 + rng.Intn(400))
		case "zerosteps":
			id += uint16(rng.Intn(3))
		case "constant":
		case "independent":
			if !owner[i] {
				other += uint16(1 + rng.Intn(50))
				ids[i] = other
				continue
			}
			id += uint16(1 + rng.Intn(50))
		case "noisy":
			id += uint16(1 + rng.Intn(50))
			if rng.Intn(8) == 0 {
				id += uint16(rng.Intn(1 << 16))
			}
		}
		ids[i] = id
	}

	var p seriesPair
	p.family = layout + "/" + model
	seq := uint64(rng.Intn(1000))
	for i := range owner {
		gap := uint64(1 + rng.Intn(3))
		if layout == "disjoint" && i > 0 && owner[i] != owner[i-1] {
			gap += 5
		}
		seq += gap
		s := obs.Sample{Seq: seq, IPID: ids[i]}
		if layout == "touch" && i > 0 && owner[i] != owner[i-1] {
			// The second window opens at the Seq the first closed on.
			s.Seq = seq - gap
			seq -= gap
		}
		if owner[i] {
			p.a = append(p.a, s)
		} else {
			p.b = append(p.b, s)
		}
	}
	return p
}

func TestMBTVerdictMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	families := map[string]map[Outcome]int{}
	for i := 0; i < 20000; i++ {
		p := genSeriesPair(rng)
		got, want := MBTVerdict(p.a, p.b), oracleMBTVerdict(p.a, p.b)
		if got != want {
			t.Fatalf("case %d (%s): MBTVerdict=%v oracle=%v\na=%v\nb=%v", i, p.family, got, want, p.a, p.b)
		}
		if rev, wantRev := MBTVerdict(p.b, p.a), oracleMBTVerdict(p.b, p.a); rev != wantRev {
			t.Fatalf("case %d (%s) reversed: MBTVerdict=%v oracle=%v", i, p.family, rev, wantRev)
		}
		if families[p.family] == nil {
			families[p.family] = map[Outcome]int{}
		}
		families[p.family][got]++
	}
	// The generator must reach every outcome the families are there for.
	for _, c := range []struct {
		family  string
		outcome Outcome
	}{
		{"alternating/shared", Accepted},
		{"block/wrap", Accepted},
		{"random/independent", Rejected},
		{"alternating/zerosteps", Rejected},
		{"block/constant", Rejected},
		{"disjoint/shared", Unable},
		{"adjacent/shared", Unable},
		{"touch/shared", Accepted},
		{"touch/wrap", Accepted},
		{"single/shared", Accepted},
	} {
		if families[c.family][c.outcome] == 0 {
			t.Errorf("family %s never produced %v: %v", c.family, c.outcome, families[c.family])
		}
	}
}

func TestMBTVerdictEdgeCases(t *testing.T) {
	s := func(pairs ...int) []obs.Sample {
		var out []obs.Sample
		for i := 0; i+1 < len(pairs); i += 2 {
			out = append(out, obs.Sample{Seq: uint64(pairs[i]), IPID: uint16(pairs[i+1])})
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []obs.Sample
		want Outcome
	}{
		{"empty", nil, s(1, 1), Unable},
		{"length-1 each", s(1, 10), s(2, 11), Unable},
		{"length-1 inside", s(1, 10, 3, 12), s(2, 11), Accepted},
		{"wrap across 65535", s(1, 65534, 3, 0), s(2, 65535, 4, 1), Accepted},
		{"zero step", s(1, 10, 3, 12), s(2, 10), Rejected},
		{"constant", s(1, 7, 3, 7), s(2, 7), Rejected},
		{"half-space step", s(1, 0, 3, 1<<15+2), s(2, 1<<15), Rejected},
		{"touching windows", s(1, 10, 5, 12), s(5, 13, 9, 14), Accepted},
		{"touching, b first on tie would pass", s(1, 10, 5, 14), s(5, 13, 9, 15), Rejected},
		{"adjacent windows", s(1, 10, 4, 12), s(5, 13, 9, 14), Unable},
	} {
		if got, want := MBTVerdict(c.a, c.b), oracleMBTVerdict(c.a, c.b); got != c.want || want != c.want {
			t.Errorf("%s: MBTVerdict=%v oracle=%v, want %v", c.name, got, want, c.want)
		}
	}
}

// decodeSeriesPair turns fuzz bytes into two Seq-sorted series: each
// 3-byte record gives the owner (low bit), a Seq gap of 0-3 and an IP ID
// step, so equal Seqs, zero steps and wraps are all reachable.
func decodeSeriesPair(data []byte) (a, b []obs.Sample) {
	var seq uint64
	var id uint16
	for len(data) >= 3 {
		seq += uint64(data[0]>>1) & 3
		id += uint16(data[1])<<8 | uint16(data[2])
		s := obs.Sample{Seq: seq, IPID: id}
		if data[0]&1 == 0 {
			a = append(a, s)
		} else {
			b = append(b, s)
		}
		data = data[3:]
	}
	return a, b
}

func FuzzMBTVerdict(f *testing.F) {
	f.Add([]byte{0x02, 0, 1, 0x03, 0, 1, 0x02, 0, 1, 0x03, 0, 1})
	f.Add([]byte{0x02, 0xff, 0xfe, 0x03, 0, 3, 0x02, 0, 0, 0x01, 0, 9})
	f.Add([]byte{0x00, 0, 5, 0x00, 0, 5, 0x01, 0, 5, 0x03, 0x80, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeSeriesPair(data)
		if got, want := MBTVerdict(a, b), oracleMBTVerdict(a, b); got != want {
			t.Fatalf("MBTVerdict=%v oracle=%v\na=%v\nb=%v", got, want, a, b)
		}
	})
}

// SamePartition reports whether two partitions list the same sets, in the
// same order, with the same outcomes.
func SamePartition(a, b []Set) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d sets vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Outcome != b[i].Outcome || fmt.Sprint(a[i].Addrs) != fmt.Sprint(b[i].Addrs) {
			return fmt.Errorf("set %d: %v %v vs %v %v", i, a[i].Outcome, a[i].Addrs, b[i].Outcome, b[i].Addrs)
		}
	}
	return nil
}

func TestPartitionMatchesOracleOnSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var groups [][]packet.Addr
		next := 1
		for g := 0; g < 1+rng.Intn(8); g++ {
			var grp []packet.Addr
			for k := 0; k < 1+rng.Intn(4); k++ {
				grp = append(grp, a(next))
				next++
			}
			groups = append(groups, grp)
		}
		o := synthObs(groups)
		// Perturb a few series so rejections, unusable series and
		// unobserved candidates all occur.
		cands := addrsOf(groups)
		for k := 0; k < rng.Intn(4); k++ {
			victim := cands[rng.Intn(len(cands))]
			o.RecordTrace(&packet.Reply{From: victim, Type: packet.ICMPTypeTimeExceeded, IPID: uint16(rng.Intn(1 << 16))}, 1, 1, 0, uint64(1000+k))
		}
		if rng.Intn(3) == 0 {
			cands = append(cands, a(500+trial))
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		r := &Resolver{Obs: o}
		if err := SamePartition(r.Partition(cands), oraclePartition(r, cands)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := r.ClassifySet(cands), oracleClassifySet(r, cands); got != want {
			t.Fatalf("trial %d: ClassifySet=%v oracle=%v", trial, got, want)
		}
		for _, g := range groups {
			if got, want := r.ClassifySet(g), oracleClassifySet(r, g); got != want {
				t.Fatalf("trial %d group %v: ClassifySet=%v oracle=%v", trial, g, got, want)
			}
		}
	}
}
