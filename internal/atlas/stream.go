// Shard-parallel streaming snapshot encode: WriteTo slices the
// canonical address order into the partitions the snapshot format
// fences — contiguous runs of traceio.AtlasShardNodes nodes — and has a
// worker pool merge, sort, dedup and JSON-render each partition into a
// private block buffer. The coordinator hands finished blocks to the
// traceio stream encoder in partition order (par.Ordered), so the
// file's bytes are a pure function of atlas content: every worker
// count, ingestion-shard count and ingestion order produces identical
// output, and peak memory is a few blocks in flight, never the whole
// snapshot.
package atlas

import (
	"io"
	"slices"

	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/traceio"
)

// WriteTo streams the atlas's canonical snapshot encoding to w. It
// implements io.WriterTo. The encode holds the snapshot gate
// exclusively: concurrent ingestion blocks for its duration, which is
// what lets the counting pass, the emit pass and the lazy in-place
// provenance sorts observe one consistent state without per-node locks.
func (a *Atlas) WriteTo(w io.Writer) (int64, error) {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()

	workers := a.mergeWorkers
	m := a.mergePlan()

	cw := &countingWriter{w: w}
	enc, err := traceio.NewAtlasStreamEncoder(cw, traceio.AtlasStreamSpec{
		Pairs: m.pairs, Nodes: len(m.addrs), Edges: m.edges,
		Routers: len(m.routers), Shards: m.parts, Diamonds: m.diamonds,
	})
	if err != nil {
		return cw.n, err
	}

	type block struct {
		raw   []byte
		hdr   traceio.AtlasShardHeader
		edges int
		err   error
	}
	var firstErr error
	par.Ordered(m.parts, workers, func(p int) block {
		blk, err := a.buildBlock(m, p)
		if err != nil {
			return block{err: err}
		}
		raw, edges, err := traceio.AppendAtlasShardBlock(nil, blk)
		return block{raw: raw, hdr: blk.Header, edges: edges, err: err}
	}, func(p int, b block) {
		if firstErr != nil {
			return
		}
		if b.err != nil {
			firstErr = b.err
			return
		}
		firstErr = enc.WriteEncodedBlock(b.raw, b.hdr, b.edges)
	})
	if firstErr != nil {
		return cw.n, firstErr
	}
	if err := enc.Finish(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// mergePlan is everything the streaming encode fixes before the first
// block: the full canonical address order, the partition fences derived
// from it, the small sections and the exact totals the header commits
// to.
type mergePlan struct {
	addrs []packet.Addr // every node address, ascending
	parts int           // number of shard blocks
	edges int
	sections
}

// sections is the small, fully materialized part of a snapshot: the
// pair table and diamond census in canonical order, and the router
// components rendered and placed into partitions.
type sections struct {
	pairs    []traceio.AtlasPair
	diamonds []traceio.AtlasDiamond

	routers       []traceio.AtlasRouter // canonical order, members rendered
	routersByPart [][]int               // partition -> indices into routers
	routerOf      map[packet.Addr]string
}

// span returns partition p's [lo, hi) range of the canonical order.
func (m *mergePlan) span(p int) (lo, hi int) {
	return traceio.AtlasBlockOf(p, len(m.addrs))
}

// mergePlan collects the plan under the exclusive snapshot gate (held
// by the caller). Address collection reads the ingestion shards without
// their locks — writers are excluded — and the edge total is counted in
// parallel without materializing a single successor list.
func (a *Atlas) mergePlan() *mergePlan {
	m := &mergePlan{}

	total := 0
	for _, s := range a.shards {
		total += len(s.nodes)
	}
	m.addrs = make([]packet.Addr, 0, total)
	for _, s := range a.shards {
		for addr := range s.nodes {
			m.addrs = append(m.addrs, addr)
		}
	}
	slices.Sort(m.addrs)

	m.parts = max(1, (len(m.addrs)+traceio.AtlasShardNodes-1)/traceio.AtlasShardNodes)
	mins := make([]packet.Addr, m.parts)
	for p := 0; p < m.parts; p++ {
		if lo, hi := m.span(p); hi > lo {
			mins[p] = m.addrs[lo]
		}
	}
	m.sections = a.sections(mins)

	// Count the merged edges per partition — the header needs the exact
	// total before the first block streams out. Successor targets
	// without a node of their own are dropped, as buildBlock drops them.
	counts := make([]int, m.parts)
	par.Do(m.parts, a.mergeWorkers, func(p int) {
		lo, hi := m.span(p)
		n := 0
		for _, addr := range m.addrs[lo:hi] {
			st := a.shards[a.shardIndexOf(addr)].nodes[addr]
			for wa := range st.succ {
				if _, ok := slices.BinarySearch(m.addrs, wa); ok {
					n++
				}
			}
		}
		counts[p] = n
	})
	for _, n := range counts {
		m.edges += n
	}
	return m
}

// sections freezes the atlas's pairs, census and routers in canonical
// order, placing each router component in the partition that owns its
// representative under the partition minimum fences mins. Both snapshot
// producers — WriteTo over a live atlas and Compact over a scratch atlas
// holding the merged small sections — freeze through here.
func (a *Atlas) sections(mins []packet.Addr) sections {
	s := sections{pairs: a.sortedPairs(), diamonds: a.Census()}
	groups := a.Routers()
	s.routers = make([]traceio.AtlasRouter, len(groups))
	s.routersByPart = make([][]int, len(mins))
	s.routerOf = make(map[packet.Addr]string)
	var scratch []byte
	for i, g := range groups {
		r := traceio.AtlasRouter{Addrs: make([]string, len(g))}
		for j, addr := range g {
			scratch = addr.AppendText(scratch[:0])
			r.Addrs[j] = string(scratch)
		}
		s.routers[i] = r
		for _, addr := range g {
			s.routerOf[addr] = r.Addrs[0]
		}
		p := traceio.AtlasShardForAddr(mins, g[0])
		s.routersByPart[p] = append(s.routersByPart[p], i)
	}
	return s
}

// sortedPairs copies the pair section in canonical (index) order.
func (a *Atlas) sortedPairs() []traceio.AtlasPair {
	a.mu.Lock()
	defer a.mu.Unlock()
	idxs := make([]int, 0, len(a.pairs))
	for i := range a.pairs {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	var out []traceio.AtlasPair
	for _, i := range idxs {
		p := a.pairs[i]
		out = append(out, traceio.AtlasPair{Pair: i, Src: p.src, Dst: p.dst})
	}
	return out
}

// buildBlock merges one partition: for each address in the fence range,
// canonicalize provenance in place (the partitions are disjoint, so
// workers never touch the same node), merge and sort the successor set,
// and render everything once via AppendText. Called with the snapshot
// gate held exclusively.
func (a *Atlas) buildBlock(m *mergePlan, p int) (*traceio.AtlasShard, error) {
	lo, hi := m.span(p)
	blk := &traceio.AtlasShard{
		Header: traceio.AtlasShardHeader{Shard: p, Nodes: hi - lo, Routers: len(m.routersByPart[p])},
	}
	var scratch []byte
	if hi > lo {
		scratch = m.addrs[lo].AppendText(scratch[:0])
		blk.Header.Min = string(scratch)
		scratch = m.addrs[hi-1].AppendText(scratch[:0])
		blk.Header.Max = string(scratch)
		blk.Nodes = make([]traceio.AtlasNodeV2, 0, hi-lo)
	}
	var succ []packet.Addr
	for _, addr := range m.addrs[lo:hi] {
		st := a.shards[a.shardIndexOf(addr)].nodes[addr]
		if st.dirty {
			st.seen = sortedObs(st.seen)
			st.dirty = false
		}
		scratch = addr.AppendText(scratch[:0])
		n := traceio.AtlasNodeV2{Addr: string(scratch), Router: m.routerOf[addr]}
		if len(st.seen) > 0 {
			n.Seen = make([][2]int, len(st.seen))
			for i, o := range st.seen {
				n.Seen[i] = [2]int{o.Pair, o.Hop}
			}
		}
		succ = succ[:0]
		for wa := range st.succ {
			if _, ok := slices.BinarySearch(m.addrs, wa); ok {
				succ = append(succ, wa)
			}
		}
		if len(succ) > 0 {
			slices.Sort(succ)
			n.Succ = make([]string, len(succ))
			for i, wa := range succ {
				scratch = wa.AppendText(scratch[:0])
				n.Succ[i] = string(scratch)
			}
		}
		blk.Nodes = append(blk.Nodes, n)
	}
	for _, ri := range m.routersByPart[p] {
		blk.Routers = append(blk.Routers, m.routers[ri])
	}
	return blk, nil
}

// countingWriter tracks bytes written for WriteTo's return value.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
