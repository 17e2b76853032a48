// Package obs accumulates the per-address measurement by-products of a
// route trace: IP ID samples, reply TTLs, MPLS labels, and the (flow ID,
// TTL) pairs known to elicit a reply from each address.
//
// The multilevel tracer's "free" Round 0 alias resolution (Sec 4.1) is
// built entirely from these observations; later rounds use the recorded
// flow table to aim additional indirect probes at specific addresses.
//
// In the layering, obs is a thin recording layer between the probing
// engine and the alias resolver: it stores what probes revealed and
// never decides what to probe. The progress and fleet trackers here are
// equally passive — counters the survey and dispatch layers update for
// reporting, never for scheduling.
package obs

import (
	"sort"

	"mmlpt/internal/packet"
)

// Sample is one IP ID observation from an address.
type Sample struct {
	// Seq is the global probe sequence number at which the sample was
	// taken: the simulated timestamp the Monotonic Bounds Test orders by.
	Seq uint64
	// IPID is the outer IP identification value of the reply.
	IPID uint16
	// SentID is the IP ID the probe carried (direct probes only): MIDAR
	// detects routers that copy the probe's IP ID into the reply by
	// comparing the two.
	SentID uint16
}

// FlowRef is a (flow ID, TTL) pair known to draw a reply from an address.
type FlowRef struct {
	Flow uint16
	TTL  int
}

// AddrObs is everything observed about one address.
type AddrObs struct {
	Addr packet.Addr
	// indirect holds the samples of Time Exceeded / Port Unreachable
	// replies (traceroute-style probing), direct those of Echo replies;
	// each series is kept in Seq order as samples are recorded.
	indirect, direct []Sample
	// ReplyTTLExceeded is the set of observed reply TTLs for indirect
	// probing (normally one value); ReplyTTLEcho likewise for direct.
	ReplyTTLExceeded []byte
	ReplyTTLEcho     []byte
	// MPLSLabels is the set of bottom-of-stack labels seen from this
	// address, in observation order.
	MPLSLabels []uint32
	// Flows are the (flow, TTL) pairs that drew replies from this address.
	Flows []FlowRef
	// Hops is the set of hop indices at which the address was observed.
	Hops []int
}

// Observations is the collection for one trace.
type Observations struct {
	byAddr map[packet.Addr]*AddrObs
}

// New returns an empty collection.
func New() *Observations {
	return &Observations{byAddr: make(map[packet.Addr]*AddrObs)}
}

// Get returns the observation record for addr, or nil.
func (o *Observations) Get(addr packet.Addr) *AddrObs { return o.byAddr[addr] }

// Ensure returns the record for addr, creating it if needed.
func (o *Observations) Ensure(addr packet.Addr) *AddrObs {
	ao := o.byAddr[addr]
	if ao == nil {
		ao = &AddrObs{Addr: addr}
		o.byAddr[addr] = ao
	}
	return ao
}

// Addrs returns all observed addresses in sorted order.
func (o *Observations) Addrs() []packet.Addr {
	out := make([]packet.Addr, 0, len(o.byAddr))
	for a := range o.byAddr {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RecordTrace stores the by-products of one traceroute reply: the address
// replied at hop with the given flow/ttl, carrying the given IP ID, reply
// TTL and MPLS stack. seq is the global probe counter.
func (o *Observations) RecordTrace(r *packet.Reply, flow uint16, ttl, hop int, seq uint64) {
	ao := o.Ensure(r.From)
	ao.indirect = insertBySeq(ao.indirect, Sample{Seq: seq, IPID: r.IPID})
	ao.addReplyTTL(&ao.ReplyTTLExceeded, r.ReplyTTL)
	for _, e := range r.MPLS {
		if e.S {
			ao.MPLSLabels = append(ao.MPLSLabels, e.Label)
		}
	}
	ao.addFlow(FlowRef{Flow: flow, TTL: ttl})
	ao.addHop(hop)
}

// RecordEcho stores the by-products of one direct probe reply. sentID is
// the IP ID the probe carried.
func (o *Observations) RecordEcho(r *packet.Reply, seq uint64, sentID uint16) {
	ao := o.Ensure(r.From)
	ao.direct = insertBySeq(ao.direct, Sample{Seq: seq, IPID: r.IPID, SentID: sentID})
	ao.addReplyTTL(&ao.ReplyTTLEcho, r.ReplyTTL)
}

// insertBySeq adds s to a Seq-sorted series, after any samples with an
// equal Seq. The tracers record in Seq order, so this is an append; an
// out-of-order sample is shifted into place.
func insertBySeq(series []Sample, s Sample) []Sample {
	n := len(series)
	if n == 0 || series[n-1].Seq <= s.Seq {
		return append(series, s)
	}
	i := sort.Search(n, func(i int) bool { return series[i].Seq > s.Seq })
	series = append(series, Sample{})
	copy(series[i+1:], series[i:n])
	series[i] = s
	return series
}

func (ao *AddrObs) addReplyTTL(set *[]byte, ttl byte) {
	for _, t := range *set {
		if t == ttl {
			return
		}
	}
	*set = append(*set, ttl)
}

func (ao *AddrObs) addFlow(fr FlowRef) {
	for _, f := range ao.Flows {
		if f == fr {
			return
		}
	}
	ao.Flows = append(ao.Flows, fr)
}

func (ao *AddrObs) addHop(h int) {
	for _, x := range ao.Hops {
		if x == h {
			return
		}
	}
	ao.Hops = append(ao.Hops, h)
}

// IndirectSamples returns the indirect (Time Exceeded) samples in sequence
// order. The slice is the stored series, not a copy: callers must not
// modify it.
func (ao *AddrObs) IndirectSamples() []Sample {
	return ao.indirect[:len(ao.indirect):len(ao.indirect)]
}

// DirectSamples returns the direct (Echo) samples in sequence order. The
// slice is the stored series, not a copy: callers must not modify it.
func (ao *AddrObs) DirectSamples() []Sample {
	return ao.direct[:len(ao.direct):len(ao.direct)]
}

// InferInitialTTL maps an observed reply TTL to the smallest conventional
// initial TTL (32, 64, 128, 255) at or above it: the Network
// Fingerprinting inference.
func InferInitialTTL(observed byte) byte {
	switch {
	case observed <= 32:
		return 32
	case observed <= 64:
		return 64
	case observed <= 128:
		return 128
	default:
		return 255
	}
}

// Fingerprint is a Network Fingerprinting signature: the inferred initial
// TTLs of traceroute-style and ping-style replies. Zero components mean
// "not measured".
type Fingerprint struct {
	Exceeded byte
	Echo     byte
}

// FingerprintOf computes the signature for an address from its
// observations. When one family shows several distinct reply TTLs, the
// inference uses the largest of them; in the simulator they never
// conflict.
func (ao *AddrObs) FingerprintOf() Fingerprint {
	var fp Fingerprint
	if len(ao.ReplyTTLExceeded) > 0 {
		fp.Exceeded = InferInitialTTL(maxByte(ao.ReplyTTLExceeded))
	}
	if len(ao.ReplyTTLEcho) > 0 {
		fp.Echo = InferInitialTTL(maxByte(ao.ReplyTTLEcho))
	}
	return fp
}

func maxByte(bs []byte) byte {
	m := bs[0]
	for _, b := range bs[1:] {
		if b > m {
			m = b
		}
	}
	return m
}

// CompatibleFingerprints reports whether two signatures could belong to
// the same router: components measured on both sides must match.
func CompatibleFingerprints(a, b Fingerprint) bool {
	if a.Exceeded != 0 && b.Exceeded != 0 && a.Exceeded != b.Exceeded {
		return false
	}
	if a.Echo != 0 && b.Echo != 0 && a.Echo != b.Echo {
		return false
	}
	return true
}

// ConstantLabel returns the MPLS label if the address always carried one
// constant label, and whether such a label exists (the constancy
// requirement of Sec 4.1's MPLS test).
func (ao *AddrObs) ConstantLabel() (uint32, bool) {
	if len(ao.MPLSLabels) == 0 {
		return 0, false
	}
	first := ao.MPLSLabels[0]
	for _, l := range ao.MPLSLabels[1:] {
		if l != first {
			return 0, false
		}
	}
	return first, true
}
