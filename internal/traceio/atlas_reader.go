package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"mmlpt/internal/packet"
)

// AtlasReader is the random-access view of a snapshot file: it opens
// the file, reads the header, trailer, index and pairs section, and
// then serves point reads — one shard block, or the diamonds section —
// without ever decoding the rest. All methods are safe for concurrent
// use after Open (section reads go through ReadAt).
//
// Trust model: Open checks everything the header, trailer and index
// claim against each other and against the file size, including that
// the index's per-shard node and router counts add up to the header's
// totals. ReadShard checks a block against its index entry and the
// canonical node order inside it. What only a full read could check is
// not checked: the header's edge total, and that every successor
// address names a node somewhere in the file.
type AtlasReader struct {
	f      *os.File
	size   int64
	header AtlasHeader
	index  AtlasIndex
	mins   []packet.Addr // per-shard min fence
	maxs   []packet.Addr // per-shard max fence
	pairs  []AtlasPair
}

// atlasTailProbe bounds the read that locates the trailer line.
const atlasTailProbe = 4096

// OpenAtlasFile opens a snapshot for random access.
func OpenAtlasFile(path string) (*AtlasReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := newAtlasReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// newAtlasReader locates and validates the header, trailer, index and
// pairs section.
func newAtlasReader(f *os.File) (*AtlasReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := &AtlasReader{f: f, size: st.Size()}
	headLine, err := r.readLineAt(0)
	if err != nil {
		return nil, fmt.Errorf("traceio: atlas header: %v", err)
	}
	if r.header, err = decodeAtlasHeader(bytes.TrimRight(headLine, "\n")); err != nil {
		return nil, err
	}
	probe := min(int64(atlasTailProbe), r.size)
	tail := make([]byte, probe)
	if _, err := r.f.ReadAt(tail, r.size-probe); err != nil {
		return nil, fmt.Errorf("traceio: atlas trailer: %v", err)
	}
	tail = bytes.TrimRight(tail, "\n")
	nl := bytes.LastIndexByte(tail, '\n')
	line := tail[nl+1:] // nl == -1 means the probe is one line
	var t atlasTrailer
	if err := json.Unmarshal(line, &t); err != nil {
		return nil, fmt.Errorf("traceio: bad atlas trailer: %v", err)
	}
	if t.Kind != atlasTrailerKind || t.Version != AtlasVersion {
		return nil, fmt.Errorf("traceio: bad atlas trailer (kind %q version %d)", t.Kind, t.Version)
	}
	if t.IndexOff <= 0 || t.IndexLen <= 0 || t.IndexLen > maxAtlasLine || t.IndexOff+t.IndexLen > r.size {
		return nil, fmt.Errorf("traceio: atlas trailer index span [%d,+%d) out of bounds", t.IndexOff, t.IndexLen)
	}
	ib := make([]byte, t.IndexLen)
	if _, err := r.f.ReadAt(ib, t.IndexOff); err != nil {
		return nil, fmt.Errorf("traceio: atlas index: %v", err)
	}
	if err := json.Unmarshal(bytes.TrimRight(ib, "\n"), &r.index); err != nil {
		return nil, fmt.Errorf("traceio: bad atlas index: %v", err)
	}
	if r.index.Kind != atlasIndexKind {
		return nil, fmt.Errorf("traceio: atlas index kind %q", r.index.Kind)
	}
	if len(r.index.Shards) != r.header.Shards {
		return nil, fmt.Errorf("traceio: atlas index lists %d shards, header claims %d", len(r.index.Shards), r.header.Shards)
	}
	r.mins = make([]packet.Addr, len(r.index.Shards))
	r.maxs = make([]packet.Addr, len(r.index.Shards))
	prevEnd := int64(0)
	var prevMax packet.Addr
	fenced := false
	nodes, routers := 0, 0
	for i, si := range r.index.Shards {
		if si.Nodes < 0 || si.Routers < 0 {
			return nil, fmt.Errorf("traceio: atlas index shard %d: negative counts", i)
		}
		if si.Off < prevEnd || si.Len <= 0 || si.Off+si.Len > r.size {
			return nil, fmt.Errorf("traceio: atlas index shard %d: span [%d,+%d) out of bounds", i, si.Off, si.Len)
		}
		prevEnd = si.Off + si.Len
		nodes += si.Nodes
		routers += si.Routers
		if si.Nodes == 0 {
			continue
		}
		lo, err := packet.ParseAddr(si.Min)
		if err != nil {
			return nil, fmt.Errorf("traceio: atlas index shard %d min fence: %v", i, err)
		}
		hi, err := packet.ParseAddr(si.Max)
		if err != nil {
			return nil, fmt.Errorf("traceio: atlas index shard %d max fence: %v", i, err)
		}
		if hi < lo || (fenced && lo <= prevMax) {
			return nil, fmt.Errorf("traceio: atlas index shard %d fences out of order", i)
		}
		r.mins[i], r.maxs[i] = lo, hi
		prevMax, fenced = hi, true
	}
	if nodes != r.header.Nodes || routers != r.header.Routers {
		return nil, fmt.Errorf("traceio: atlas index shards hold %d nodes and %d routers, header claims %d and %d",
			nodes, routers, r.header.Nodes, r.header.Routers)
	}
	if r.index.PairsOff < 0 || r.index.PairsLen < 0 || r.index.PairsOff+r.index.PairsLen > r.size {
		return nil, fmt.Errorf("traceio: atlas index pairs span out of bounds")
	}
	if r.index.DiamondsOff < 0 || r.index.DiamondsLen < 0 || r.index.DiamondsOff+r.index.DiamondsLen > r.size {
		return nil, fmt.Errorf("traceio: atlas index diamonds span out of bounds")
	}
	pb := make([]byte, r.index.PairsLen)
	if _, err := r.f.ReadAt(pb, r.index.PairsOff); err != nil {
		return nil, fmt.Errorf("traceio: atlas pairs: %v", err)
	}
	pls := newLineScanner(bytes.NewReader(pb))
	if r.pairs, err = decodePairs(pls, r.header.Pairs); err != nil {
		return nil, err
	}
	if err := pls.finish(); err != nil {
		return nil, fmt.Errorf("traceio: atlas pairs section: %v", err)
	}
	return r, nil
}

// readLineAt returns the '\n'-terminated line starting at off, growing
// the probe until a newline appears (bounded by maxAtlasLine).
func (r *AtlasReader) readLineAt(off int64) ([]byte, error) {
	for probe := int64(atlasTailProbe); ; probe *= 2 {
		if probe > maxAtlasLine {
			return nil, fmt.Errorf("line at %d exceeds %d bytes", off, maxAtlasLine)
		}
		if off+probe > r.size {
			probe = r.size - off
		}
		buf := make([]byte, probe)
		if _, err := r.f.ReadAt(buf, off); err != nil {
			return nil, err
		}
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			return buf[:i+1], nil
		}
		if off+probe == r.size {
			return nil, fmt.Errorf("unterminated line at %d", off)
		}
	}
}

// Header returns the snapshot header (section totals, version).
func (r *AtlasReader) Header() AtlasHeader { return r.header }

// Pairs returns the pair section, decoded at open time (it is small
// and every provenance answer needs it).
func (r *AtlasReader) Pairs() []AtlasPair { return r.pairs }

// NumShards returns the number of independently decodable shards.
func (r *AtlasReader) NumShards() int { return len(r.index.Shards) }

// ShardFor returns the shard whose address range owns addr. Every
// address maps to some shard; whether the shard actually holds a node
// for it is answered by decoding the shard.
func (r *AtlasReader) ShardFor(addr packet.Addr) int {
	return AtlasShardForAddr(r.mins, addr)
}

// AtlasShard is one decoded shard block: a contiguous address range
// of nodes plus the router components whose representative falls in the
// range.
type AtlasShard struct {
	Header  AtlasShardHeader
	Nodes   []AtlasNodeV2
	Routers []AtlasRouter
}

// ReadShard decodes shard i from its byte span. Safe for concurrent
// callers.
func (r *AtlasReader) ReadShard(i int) (*AtlasShard, error) {
	if i < 0 || i >= len(r.index.Shards) {
		return nil, fmt.Errorf("traceio: atlas shard %d out of range (%d shards)", i, len(r.index.Shards))
	}
	si := r.index.Shards[i]
	buf := make([]byte, si.Len)
	if _, err := r.f.ReadAt(buf, si.Off); err != nil {
		return nil, fmt.Errorf("traceio: atlas shard %d: %v", i, err)
	}
	ls := newLineScanner(bytes.NewReader(buf))
	sh, err := decodeShardHeader(ls, i)
	if err != nil {
		return nil, err
	}
	if sh.Nodes != si.Nodes || sh.Routers != si.Routers || sh.Min != si.Min || sh.Max != si.Max {
		return nil, fmt.Errorf("traceio: atlas shard %d: block header %+v disagrees with index %+v", i, sh, si)
	}
	out := &AtlasShard{
		Header:  sh,
		Nodes:   make([]AtlasNodeV2, 0, cappedPrealloc(sh.Nodes)),
		Routers: make([]AtlasRouter, 0, cappedPrealloc(sh.Routers)),
	}
	var prev packet.Addr
	for j := 0; j < sh.Nodes; j++ {
		n, addr, err := decodeNode(ls, prev, j > 0)
		if err != nil {
			return nil, err
		}
		if (j == 0 && addr != r.mins[i]) || (j == sh.Nodes-1 && addr != r.maxs[i]) {
			return nil, fmt.Errorf("traceio: atlas shard %d: node %s disagrees with fences [%s,%s]", i, n.Addr, si.Min, si.Max)
		}
		prev = addr
		out.Nodes = append(out.Nodes, n)
	}
	for j := 0; j < sh.Routers; j++ {
		rt, err := decodeRouter(ls)
		if err != nil {
			return nil, fmt.Errorf("traceio: atlas shard %d: %v", i, err)
		}
		out.Routers = append(out.Routers, rt)
	}
	if err := ls.finish(); err != nil {
		return nil, fmt.Errorf("traceio: atlas shard %d: %v", i, err)
	}
	return out, nil
}

// ReadDiamonds decodes the diamond census section. Safe for concurrent
// callers.
func (r *AtlasReader) ReadDiamonds() ([]AtlasDiamond, error) {
	buf := make([]byte, r.index.DiamondsLen)
	if _, err := r.f.ReadAt(buf, r.index.DiamondsOff); err != nil {
		return nil, fmt.Errorf("traceio: atlas diamonds: %v", err)
	}
	ls := newLineScanner(bytes.NewReader(buf))
	ds, err := decodeDiamonds(ls, r.header.Diamonds)
	if err != nil {
		return nil, err
	}
	if err := ls.finish(); err != nil {
		return nil, fmt.Errorf("traceio: atlas diamonds section: %v", err)
	}
	return ds, nil
}

// Close releases the underlying file.
func (r *AtlasReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
