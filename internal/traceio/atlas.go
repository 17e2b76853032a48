package traceio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"mmlpt/internal/packet"
)

// Atlas snapshot format.
//
// A snapshot persists the cross-trace topology atlas (internal/atlas):
// the address-keyed multilevel graph with per-pair hop provenance, the
// aggregated alias components (routers), and the cross-pair diamond
// census. It is line-oriented JSON, sectioned and indexed so a reader
// can decode one address range without the rest of the file.
//
// Grammar (every line one JSON value, '\n'-terminated):
//
//	header    {"version":2,"kind":"atlas","pairs":P,"nodes":N,"edges":E,"routers":R,"diamonds":D,"shards":S}
//	P pair lines   {"pair":i,"src":"A","dst":"B"}
//	S shard blocks, each:
//	    {"shard":i,"nodes":n,"routers":r,"min":"A","max":"B"}
//	    n node lines   {"addr":"A","seen":[[p,h],...],"succ":["B",...],"router":"REP"}
//	    r router lines {"addrs":["A","B",...]}
//	D diamond lines {"div":"A","conv":"B","count":c,"pairs":[...],"max_width":w,"max_length":l}
//	index     {"kind":"atlas-index","pairs_off":o,"pairs_len":l,"shards":[{"off":o,"len":l,"nodes":n,"routers":r,"min":"A","max":"B"},...],"diamonds_off":o,"diamonds_len":l}
//	trailer   {"kind":"atlas-trailer","version":2,"index_off":o,"index_len":l}
//
// Nodes are split into contiguous runs of AtlasShardNodes in canonical
// (ascending address) order; a shard's fences [min, max] are its first
// and last node address, so fences partition the address space into
// disjoint ascending ranges. Edges live with their source node as a
// "succ" list of destination addresses, and each node in a
// multi-interface router names the component's representative (its
// minimum address) in "router". A router component is stored in the
// shard its representative falls in. The trailer is the last line of
// the file and locates the index; the index locates every shard plus
// the pairs and diamonds sections by absolute byte offset, so a reader
// answers a point query by decoding one shard, never the whole file.
//
// Every section is emitted in canonical order (pairs by index, nodes by
// ascending address, successors by address, routers by representative,
// diamonds by (div, conv) label), and offsets are pure functions of the
// content, so for a fixed survey the snapshot is byte-identical
// whatever worker or shard count produced it.
//
// The one writer is AtlasStreamEncoder (atlas_stream.go); the one
// reader is AtlasReader (atlas_reader.go). The flat version 1 format is
// no longer read: OpenAtlasFile rejects it with the conversion command.

// AtlasVersion is the snapshot format version.
const AtlasVersion = 2

// errAtlasV1 names the conversion for a version 1 file. A one-input
// compaction rewrites a snapshot in the current format, so any build
// that still read v1 converts it.
var errAtlasV1 = errors.New("traceio: atlas snapshot format v1 is no longer read; " +
	`convert it with "atlas compact -o new.atlas old.atlas" using a build at or before commit fe763d3`)

// AtlasShardNodes is the node count per shard block: the partition
// size every producer slices the canonical node order into. Shard
// layout is therefore a pure function of the snapshot content, never
// of the producing process's worker or ingestion-shard count.
const AtlasShardNodes = 4096

// atlasKind guards against loading some other tool's JSONL file.
const atlasKind = "atlas"

// atlasIndexKind and atlasTrailerKind tag the two locator lines.
const (
	atlasIndexKind   = "atlas-index"
	atlasTrailerKind = "atlas-trailer"
)

// maxAtlasLine bounds one snapshot line; a header or record longer than
// this is hostile or corrupt, not big.
const maxAtlasLine = 1 << 24

// preallocCap bounds slice preallocation from header counts, so a
// hostile header claiming 10^12 nodes cannot allocate terabytes before
// the decoder notices the file is short.
const preallocCap = 1 << 16

// AtlasHeader is the snapshot's first line: the section totals.
type AtlasHeader struct {
	Version  int    `json:"version"`
	Kind     string `json:"kind"`
	Pairs    int    `json:"pairs"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Routers  int    `json:"routers"`
	Diamonds int    `json:"diamonds"`
	Shards   int    `json:"shards,omitempty"`
}

// AtlasPair records one merged trace's identity.
type AtlasPair struct {
	Pair int    `json:"pair"`
	Src  string `json:"src"`
	Dst  string `json:"dst"`
}

// AtlasRouter is one aggregated alias component, addresses sorted.
type AtlasRouter struct {
	Addrs []string `json:"addrs"`
}

// AtlasDiamond is one distinct diamond's census entry across all pairs.
type AtlasDiamond struct {
	Div  string `json:"div"`
	Conv string `json:"conv"`
	// Count is the number of encounters; Pairs the distinct pair
	// indices that saw the diamond, sorted.
	Count int   `json:"count"`
	Pairs []int `json:"pairs"`
	// MaxWidth and MaxLength are maxima over all encounters.
	MaxWidth  int `json:"max_width"`
	MaxLength int `json:"max_length"`
}

// AtlasShardHeader is the first line of one shard block.
type AtlasShardHeader struct {
	Shard   int    `json:"shard"`
	Nodes   int    `json:"nodes"`
	Routers int    `json:"routers"`
	Min     string `json:"min,omitempty"`
	Max     string `json:"max,omitempty"`
}

// AtlasNodeV2 is one node line: an address with its (pair, hop)
// provenance (sorted), its outgoing links by destination address, and
// the representative of the router component containing it, when any.
type AtlasNodeV2 struct {
	Addr   string   `json:"addr"`
	Seen   [][2]int `json:"seen"`
	Succ   []string `json:"succ"`
	Router string   `json:"router,omitempty"`
}

// AtlasShardInfo locates one shard block in the file and repeats its
// fences so a reader can route a query without touching the block.
type AtlasShardInfo struct {
	Off     int64  `json:"off"`
	Len     int64  `json:"len"`
	Nodes   int    `json:"nodes"`
	Routers int    `json:"routers"`
	Min     string `json:"min,omitempty"`
	Max     string `json:"max,omitempty"`
}

// AtlasIndex is the index line: absolute byte spans for every
// random-access section.
type AtlasIndex struct {
	Kind        string           `json:"kind"`
	PairsOff    int64            `json:"pairs_off"`
	PairsLen    int64            `json:"pairs_len"`
	Shards      []AtlasShardInfo `json:"shards"`
	DiamondsOff int64            `json:"diamonds_off"`
	DiamondsLen int64            `json:"diamonds_len"`
}

// atlasTrailer is the fixed last line locating the index.
type atlasTrailer struct {
	Kind     string `json:"kind"`
	Version  int    `json:"version"`
	IndexOff int64  `json:"index_off"`
	IndexLen int64  `json:"index_len"`
}

// AtlasShardForAddr returns the shard whose address range owns addr,
// given the per-shard minimum fences: the last shard whose minimum is
// <= addr, or 0 when addr precedes every fence. For an address that is
// a node this is exactly the containing shard; for others it is where
// that address would live, which is the router placement rule — a
// router component is stored in the shard owning its representative.
func AtlasShardForAddr(mins []packet.Addr, addr packet.Addr) int {
	// sort.Search: first index with mins[i] > addr.
	i := sort.Search(len(mins), func(i int) bool { return mins[i] > addr })
	if i == 0 {
		return 0
	}
	return i - 1
}

// AtlasBlockOf returns shard's [lo, hi) range of a canonical node
// order holding n nodes.
func AtlasBlockOf(shard, n int) (lo, hi int) {
	lo = min(shard*AtlasShardNodes, n)
	hi = min(lo+AtlasShardNodes, n)
	return lo, hi
}

// lineScanner yields non-empty lines with position tracking.
type lineScanner struct {
	sc   *bufio.Scanner
	line int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxAtlasLine)
	return &lineScanner{sc: sc}
}

func (ls *lineScanner) next() ([]byte, error) {
	for ls.sc.Scan() {
		ls.line++
		if len(ls.sc.Bytes()) > 0 {
			return ls.sc.Bytes(), nil
		}
	}
	if err := ls.sc.Err(); err != nil {
		return nil, fmt.Errorf("traceio: atlas line %d: %v", ls.line+1, err)
	}
	return nil, fmt.Errorf("traceio: atlas truncated after line %d", ls.line)
}

// finish errors if any non-empty line remains.
func (ls *lineScanner) finish() error {
	for ls.sc.Scan() {
		if len(ls.sc.Bytes()) > 0 {
			return fmt.Errorf("traceio: atlas has trailing data after line %d", ls.line)
		}
	}
	if err := ls.sc.Err(); err != nil {
		return fmt.Errorf("traceio: atlas after line %d: %v", ls.line, err)
	}
	return nil
}

func decodeAtlasHeader(b []byte) (AtlasHeader, error) {
	var h AtlasHeader
	if err := json.Unmarshal(b, &h); err != nil {
		return h, fmt.Errorf("traceio: bad atlas header: %v", err)
	}
	if h.Kind != atlasKind {
		return h, fmt.Errorf("traceio: not an atlas snapshot (kind %q)", h.Kind)
	}
	if h.Version == 1 {
		return h, errAtlasV1
	}
	if h.Version != AtlasVersion {
		return h, fmt.Errorf("traceio: atlas version %d, want %d", h.Version, AtlasVersion)
	}
	if h.Pairs < 0 || h.Nodes < 0 || h.Edges < 0 || h.Routers < 0 || h.Diamonds < 0 || h.Shards < 0 {
		return h, fmt.Errorf("traceio: atlas header has negative section count")
	}
	if h.Shards < 1 || (h.Nodes == 0 && h.Shards != 1) || (h.Nodes > 0 && h.Shards > h.Nodes) {
		return h, fmt.Errorf("traceio: atlas header: %d shards for %d nodes", h.Shards, h.Nodes)
	}
	return h, nil
}

func cappedPrealloc(n int) int {
	return min(n, preallocCap)
}

// decodePairs reads n pair lines.
func decodePairs(ls *lineScanner, n int) ([]AtlasPair, error) {
	out := make([]AtlasPair, 0, cappedPrealloc(n))
	for i := 0; i < n; i++ {
		b, err := ls.next()
		if err != nil {
			return nil, err
		}
		var p AtlasPair
		if err := json.Unmarshal(b, &p); err != nil {
			return nil, fmt.Errorf("traceio: atlas line %d: bad pair: %v", ls.line, err)
		}
		if p.Pair < 0 {
			return nil, fmt.Errorf("traceio: atlas line %d: negative pair index", ls.line)
		}
		out = append(out, p)
	}
	return out, nil
}

// decodeDiamonds reads n diamond lines.
func decodeDiamonds(ls *lineScanner, n int) ([]AtlasDiamond, error) {
	out := make([]AtlasDiamond, 0, cappedPrealloc(n))
	for i := 0; i < n; i++ {
		b, err := ls.next()
		if err != nil {
			return nil, err
		}
		var d AtlasDiamond
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("traceio: atlas line %d: bad diamond: %v", ls.line, err)
		}
		if d.Count < 0 {
			return nil, fmt.Errorf("traceio: atlas line %d: negative diamond count", ls.line)
		}
		for _, p := range d.Pairs {
			if p < 0 {
				return nil, fmt.Errorf("traceio: atlas line %d: negative diamond pair", ls.line)
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// decodeShardHeader parses and validates one shard-header line.
func decodeShardHeader(ls *lineScanner, want int) (AtlasShardHeader, error) {
	var sh AtlasShardHeader
	b, err := ls.next()
	if err != nil {
		return sh, err
	}
	if err := json.Unmarshal(b, &sh); err != nil {
		return sh, fmt.Errorf("traceio: atlas line %d: bad shard header: %v", ls.line, err)
	}
	if sh.Shard != want {
		return sh, fmt.Errorf("traceio: atlas line %d: shard %d, want %d", ls.line, sh.Shard, want)
	}
	if sh.Nodes < 0 || sh.Routers < 0 {
		return sh, fmt.Errorf("traceio: atlas line %d: negative shard section count", ls.line)
	}
	return sh, nil
}

// decodeNode parses and validates one node line: parseable address,
// strictly ascending over the previous node (prev/havePrev), and
// non-negative provenance. These are canonical-order facts every real
// snapshot satisfies, and checking them at read time is what guarantees
// any accepted block re-encodes (shard fences need ordered, parseable
// addresses).
func decodeNode(ls *lineScanner, prev packet.Addr, havePrev bool) (AtlasNodeV2, packet.Addr, error) {
	var n AtlasNodeV2
	b, err := ls.next()
	if err != nil {
		return n, 0, err
	}
	if err := json.Unmarshal(b, &n); err != nil {
		return n, 0, fmt.Errorf("traceio: atlas line %d: bad node: %v", ls.line, err)
	}
	addr, err := packet.ParseAddr(n.Addr)
	if err != nil {
		return n, 0, fmt.Errorf("traceio: atlas line %d: node address %q: %v", ls.line, n.Addr, err)
	}
	if havePrev && addr <= prev {
		return n, 0, fmt.Errorf("traceio: atlas line %d: node %s out of canonical order", ls.line, n.Addr)
	}
	for _, o := range n.Seen {
		if o[0] < 0 || o[1] < 0 {
			return n, 0, fmt.Errorf("traceio: atlas line %d: negative provenance", ls.line)
		}
	}
	return n, addr, nil
}

// decodeRouter parses one router line and checks it has at least two
// members and a parseable representative (first address), which shard
// placement keys on.
func decodeRouter(ls *lineScanner) (AtlasRouter, error) {
	var rt AtlasRouter
	b, err := ls.next()
	if err != nil {
		return rt, err
	}
	if err := json.Unmarshal(b, &rt); err != nil {
		return rt, fmt.Errorf("traceio: atlas line %d: bad router: %v", ls.line, err)
	}
	if len(rt.Addrs) < 2 {
		return rt, fmt.Errorf("traceio: atlas line %d: router with %d addresses", ls.line, len(rt.Addrs))
	}
	if _, err := packet.ParseAddr(rt.Addrs[0]); err != nil {
		return rt, fmt.Errorf("traceio: atlas line %d: router representative %q: %v", ls.line, rt.Addrs[0], err)
	}
	return rt, nil
}
