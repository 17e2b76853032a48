// Package alias implements the alias resolution machinery of Multilevel
// MDA-Lite Paris Traceroute (Sec 4.1): MIDAR's Monotonic Bounds Test over
// IP ID time series, Vanaubel et al.'s Network Fingerprinting, and MPLS
// labeling, combined under the MBT's set-based refinement schema.
//
// Candidate aliases are the addresses found at a single hop of one
// multipath trace. A "free" Round 0 evaluation uses only the observations
// already collected during the MDA-Lite trace; each subsequent round adds
// interleaved probing (indirect TTL-expiry probes for MMLPT, direct Echo
// probes for the MIDAR-style comparison of Table 2) and refines the sets.
package alias

import (
	"sort"

	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
)

// Outcome classifies a pair or set verdict.
type Outcome int

const (
	// Unable means the evidence does not allow a determination: constant
	// or non-monotonic IP ID series, unresponsive addresses, or reply IDs
	// copied from the probe.
	Unable Outcome = iota
	// Accepted means the addresses are considered aliases of one router.
	Accepted
	// Rejected means the addresses belong to different routers.
	Rejected
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Accepted:
		return "accept"
	case Rejected:
		return "reject"
	default:
		return "unable"
	}
}

// UnableCause explains why an address's series cannot support the MBT.
type UnableCause int

const (
	CauseNone UnableCause = iota
	// CauseConstant: every sample carries the same (usually zero) IP ID.
	CauseConstant
	// CauseNonMonotonic: the address's own series violates monotonicity
	// (per-reply random IDs).
	CauseNonMonotonic
	// CauseUnresponsive: no replies at all.
	CauseUnresponsive
	// CauseCopyProbe: reply IDs echo the probe's IP ID (direct probing).
	CauseCopyProbe
	// CauseTooFew: not enough samples for a series.
	CauseTooFew
)

// String renders the cause.
func (c UnableCause) String() string {
	switch c {
	case CauseConstant:
		return "constant"
	case CauseNonMonotonic:
		return "non-monotonic"
	case CauseUnresponsive:
		return "unresponsive"
	case CauseCopyProbe:
		return "copy-probe"
	case CauseTooFew:
		return "too-few-samples"
	default:
		return "ok"
	}
}

// wrapThreshold is the half-space bound for forward differences: a merged
// series is monotonic (mod 2^16) while consecutive forward differences
// stay below it.
const wrapThreshold = 1 << 15

// SeriesUsable checks whether a sample series can support the MBT and
// returns the blocking cause otherwise.
func SeriesUsable(samples []obs.Sample, direct bool) (bool, UnableCause) {
	if len(samples) == 0 {
		return false, CauseUnresponsive
	}
	if len(samples) < 3 {
		return false, CauseTooFew
	}
	if direct {
		copies := 0
		for _, s := range samples {
			if s.IPID == s.SentID {
				copies++
			}
		}
		if copies == len(samples) {
			return false, CauseCopyProbe
		}
	}
	constant := true
	for _, s := range samples[1:] {
		if s.IPID != samples[0].IPID {
			constant = false
			break
		}
	}
	if constant {
		return false, CauseConstant
	}
	if !Monotonic(samples) {
		return false, CauseNonMonotonic
	}
	return true, CauseNone
}

// Monotonic reports whether the sequence of IP IDs, in Seq order, is
// strictly increasing modulo 2^16 with forward steps below the wrap
// threshold: the Monotonic Bounds Test's consistency condition.
func Monotonic(samples []obs.Sample) bool {
	for i := 1; i < len(samples); i++ {
		diff := samples[i].IPID - samples[i-1].IPID // uint16 arithmetic wraps
		if diff == 0 || diff >= wrapThreshold {
			return false
		}
	}
	return true
}

// MBTVerdict applies the Monotonic Bounds Test to a pair of usable series,
// each in Seq order: if their interleaved merge stays monotonic the
// addresses are consistent with sharing one counter (Accepted); a single
// out-of-sequence identifier rejects the pair. Series that do not
// interleave (no overlap in time) cannot discriminate and yield Unable.
//
// The merge is walked in place with two cursors, stopping at the first
// violation, so the test is linear in the series lengths and allocates
// nothing. On equal Seq the sample of a comes first.
func MBTVerdict(a, b []obs.Sample) Outcome {
	if len(a) == 0 || len(b) == 0 {
		return Unable
	}
	// Overlap check: the windows [minSeq,maxSeq] must intersect, else the
	// merged series is a concatenation and monotonicity is uninformative.
	if a[len(a)-1].Seq < b[0].Seq || b[len(b)-1].Seq < a[0].Seq {
		return Unable
	}
	i, j := 0, 0
	var prev uint16
	for n := 0; i < len(a) || j < len(b); n++ {
		var id uint16
		if j == len(b) || (i < len(a) && a[i].Seq <= b[j].Seq) {
			id = a[i].IPID
			i++
		} else {
			id = b[j].IPID
			j++
		}
		if diff := id - prev; n > 0 && (diff == 0 || diff >= wrapThreshold) {
			return Rejected
		}
		prev = id
	}
	return Accepted
}

// Evidence is the full pairwise verdict with its source tests.
type Evidence struct {
	MBT         Outcome
	Fingerprint Outcome // Rejected if signatures differ, else Unable
	MPLS        Outcome // Accepted same constant label, Rejected different
}

// Combine merges the tests: any rejection rejects; otherwise an MBT or
// MPLS accept accepts; otherwise unable.
func (e Evidence) Combine() Outcome {
	if e.MBT == Rejected || e.Fingerprint == Rejected || e.MPLS == Rejected {
		return Rejected
	}
	if e.MBT == Accepted || e.MPLS == Accepted {
		return Accepted
	}
	return Unable
}

// Resolver refines alias sets over probing rounds.
type Resolver struct {
	// P sends the additional probing; may be nil for a Round 0-only
	// evaluation.
	P probe.Prober
	// Obs is the observation store, typically pre-populated by the trace.
	Obs *obs.Observations
	// Direct selects MIDAR-style Echo probing instead of MMLPT's
	// indirect TTL-expiry probing.
	Direct bool
	// ProbesPerRound is the number of MBT samples solicited per address
	// per round (paper: 30).
	ProbesPerRound int
	// Rounds is the number of probing rounds after Round 0 (paper: 10).
	Rounds int

	seq uint16
}

// NewResolver returns a resolver with the paper's defaults.
func NewResolver(p probe.Prober, o *obs.Observations) *Resolver {
	return &Resolver{P: p, Obs: o, ProbesPerRound: 30, Rounds: 10}
}

// AddrUsable evaluates the address's series of the resolver's family.
func (r *Resolver) AddrUsable(a packet.Addr) (bool, UnableCause) {
	ao := r.Obs.Get(a)
	if ao == nil {
		return false, CauseUnresponsive
	}
	return SeriesUsable(r.samples(ao), r.Direct)
}

func (r *Resolver) samples(ao *obs.AddrObs) []obs.Sample {
	if r.Direct {
		return ao.DirectSamples()
	}
	return ao.IndirectSamples()
}

// addrEvidence is what the pair tests read about one address: its series
// of the resolver's family, whether that series can support the MBT, its
// fingerprint and its constant MPLS label. Partition and ClassifySet
// gather it once per address per call rather than once per pair.
type addrEvidence struct {
	observed bool
	series   []obs.Sample
	usable   bool
	fp       obs.Fingerprint
	label    uint32
	labeled  bool
}

func (r *Resolver) evidenceOf(a packet.Addr) addrEvidence {
	ao := r.Obs.Get(a)
	if ao == nil {
		return addrEvidence{}
	}
	e := addrEvidence{observed: true, series: r.samples(ao), fp: ao.FingerprintOf()}
	e.usable, _ = SeriesUsable(e.series, r.Direct)
	e.label, e.labeled = ao.ConstantLabel()
	return e
}

// pairEvidence runs every test on two addresses' evidence.
func pairEvidence(x, y *addrEvidence) Evidence {
	var ev Evidence
	if !x.observed || !y.observed {
		return ev
	}
	// Network Fingerprinting.
	if !obs.CompatibleFingerprints(x.fp, y.fp) {
		ev.Fingerprint = Rejected
	}
	// MPLS labeling (constant labels only).
	if x.labeled && y.labeled {
		if x.label == y.label {
			ev.MPLS = Accepted
		} else {
			ev.MPLS = Rejected
		}
	}
	// Monotonic Bounds Test.
	if x.usable && y.usable {
		ev.MBT = MBTVerdict(x.series, y.series)
	}
	return ev
}

// PairVerdict evaluates the pair with all available evidence.
func (r *Resolver) PairVerdict(a, b packet.Addr) Evidence {
	ea, eb := r.evidenceOf(a), r.evidenceOf(b)
	return pairEvidence(&ea, &eb)
}

// Set is one refined alias set.
type Set struct {
	Addrs []packet.Addr
	// Outcome is Accepted when the set has two or more addresses bound by
	// positive evidence, Unable when membership could not be determined
	// for at least one pair, Rejected never applies to a surviving set.
	Outcome Outcome
}

// Partition groups the candidate addresses into alias sets using the
// current evidence: each address joins the first set whose every member it
// is compatible with (no rejection); a set is Accepted when every pair
// inside it has positive evidence.
//
// Each candidate's evidence is gathered once, and each pair verdict is
// computed at most once into an n×n table indexed by position in the
// sorted candidate list.
func (r *Resolver) Partition(candidates []packet.Addr) []Set {
	sorted := append([]packet.Addr(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	ev := make([]addrEvidence, n)
	for i, a := range sorted {
		ev[i] = r.evidenceOf(a)
	}
	// verdict holds Outcome+1 per ordered pair; zero means not computed.
	verdict := make([]uint8, n*n)
	pv := func(i, j int) Outcome {
		if v := verdict[i*n+j]; v != 0 {
			return Outcome(v - 1)
		}
		v := pairEvidence(&ev[i], &ev[j]).Combine()
		verdict[i*n+j], verdict[j*n+i] = uint8(v+1), uint8(v+1)
		return v
	}

	var groups [][]int
	for i := range sorted {
		placed := false
		for gi, g := range groups {
			ok := true
			positive := false
			for _, m := range g {
				switch pv(i, m) {
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
				groups[gi] = append(groups[gi], i)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{i})
		}
	}
	out := make([]Set, 0, len(groups))
	for _, g := range groups {
		s := Set{Addrs: make([]packet.Addr, len(g)), Outcome: Accepted}
		for k, i := range g {
			s.Addrs[k] = sorted[i]
		}
		if len(g) < 2 {
			s.Outcome = Unable
			if ev[g[0]].usable {
				// A usable singleton is a positively isolated interface.
				s.Outcome = Accepted
			}
			out = append(out, s)
			continue
		}
		for x := 0; x < len(g) && s.Outcome == Accepted; x++ {
			for y := x + 1; y < len(g); y++ {
				if pv(g[x], g[y]) != Accepted {
					s.Outcome = Unable
					break
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// ClassifySet reports, for an externally given address set (e.g. the other
// tool's router), this resolver's verdict: Accepted if the resolver groups
// the whole set with positive pairwise evidence, Rejected if any pair is
// rejected, Unable otherwise.
func (r *Resolver) ClassifySet(addrs []packet.Addr) Outcome {
	if len(addrs) < 2 {
		return Unable
	}
	ev := make([]addrEvidence, len(addrs))
	for i, a := range addrs {
		ev[i] = r.evidenceOf(a)
	}
	sawUnable := false
	for i := range ev {
		for j := i + 1; j < len(ev); j++ {
			switch pairEvidence(&ev[i], &ev[j]).Combine() {
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

// ProbeRound solicits one round of MBT samples: ProbesPerRound probes per
// address, interleaved round-robin so the series overlap. For indirect
// probing, each address is reached through a (flow, TTL) pair recorded
// during the trace; direct probing sends Echo probes. The direct
// fingerprint probe of Round 1 is sent by FingerprintRound. Returns the
// number of probes sent.
func (r *Resolver) ProbeRound(addrs []packet.Addr) uint64 {
	if r.P == nil {
		return 0
	}
	before := probe.TotalSent(r.P)
	for i := 0; i < r.ProbesPerRound; i++ {
		for _, a := range addrs {
			ao := r.Obs.Ensure(a)
			if r.Direct {
				r.seq++
				if reply := r.P.Echo(a, r.seq); reply != nil && reply.IsEchoReply() && reply.From == a {
					r.Obs.RecordEcho(reply, probe.TotalSent(r.P), r.seq)
				}
				continue
			}
			if len(ao.Flows) == 0 {
				continue // cannot aim an indirect probe without a flow
			}
			fr := ao.Flows[i%len(ao.Flows)]
			if reply := r.P.Probe(fr.Flow, fr.TTL); reply != nil && reply.From == a {
				r.Obs.RecordTrace(reply, fr.Flow, fr.TTL, fr.TTL-1, probe.TotalSent(r.P))
			}
		}
	}
	return probe.TotalSent(r.P) - before
}

// FingerprintRound sends one direct probe per address to complete Network
// Fingerprinting signatures (the Round 1 extra of Sec 4.2). Returns probes
// sent.
func (r *Resolver) FingerprintRound(addrs []packet.Addr) uint64 {
	if r.P == nil {
		return 0
	}
	before := probe.TotalSent(r.P)
	for _, a := range addrs {
		r.seq++
		if reply := r.P.Echo(a, r.seq); reply != nil && reply.IsEchoReply() && reply.From == a {
			r.Obs.RecordEcho(reply, probe.TotalSent(r.P), r.seq)
		}
	}
	return probe.TotalSent(r.P) - before
}

// RoundResult snapshots the refinement after a round.
type RoundResult struct {
	Round  int
	Sets   []Set
	Probes uint64 // cumulative probes sent by the resolver
}

// Resolve runs the full schedule on one candidate group (the addresses of
// one hop): Round 0 evaluates trace observations only; Round 1 adds the
// fingerprint probe and the first MBT round; Rounds 2..Rounds add MBT
// rounds. The returned slice holds Rounds+1 snapshots.
func (r *Resolver) Resolve(candidates []packet.Addr) []RoundResult {
	var out []RoundResult
	var sent uint64
	out = append(out, RoundResult{Round: 0, Sets: r.Partition(candidates), Probes: 0})
	for round := 1; round <= r.Rounds; round++ {
		if round == 1 && !r.Direct {
			sent += r.FingerprintRound(candidates)
		}
		sent += r.ProbeRound(candidates)
		out = append(out, RoundResult{Round: round, Sets: r.Partition(candidates), Probes: sent})
	}
	return out
}
