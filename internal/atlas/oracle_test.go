package atlas

// The materialized test oracle. The production atlas has one write path
// (WriteTo: a shard-parallel streaming encode) and one merge (Compact: a
// streaming k-way merge over readers). This file keeps the independent
// implementations they replaced — a flat in-memory snapshot built from
// a serial canonical merge (Merged, Snapshot), its serial encode, and
// the additive decoded-snapshot merge (MergeSnapshot) — so the tests
// can pin the streaming paths byte for byte against them.

import (
	"fmt"
	"io"
	"sort"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// snapshot is the flat, fully materialized form of a snapshot.
type snapshot struct {
	Pairs    []traceio.AtlasPair
	Nodes    []snapNode
	Edges    [][2]int // by node index: [from, to]
	Routers  []traceio.AtlasRouter
	Diamonds []traceio.AtlasDiamond
}

// snapNode is one address with its sorted (pair, hop) provenance.
type snapNode struct {
	Addr string
	Seen [][2]int
}

// NodeID indexes MultiGraph nodes.
type NodeID = topo.VertexID

// MultiGraph is the merged multilevel view: one node per interface
// address (stars have none and are absent), edges wherever any trace
// observed a link, and hop positions kept as per-source annotations.
type MultiGraph struct {
	dag    topo.DAG
	addrs  []packet.Addr
	byAddr map[packet.Addr]NodeID
	seen   [][]Obs
}

func (m *MultiGraph) NumNodes() int              { return len(m.addrs) }
func (m *MultiGraph) NumEdges() int              { return m.dag.NumEdges() }
func (m *MultiGraph) Addr(id NodeID) packet.Addr { return m.addrs[id] }
func (m *MultiGraph) Seen(id NodeID) []Obs       { return m.seen[id] }
func (m *MultiGraph) Succ(id NodeID) []NodeID    { return m.dag.Succ(id) }
func (m *MultiGraph) OutDegree(id NodeID) int    { return m.dag.OutDegree(id) }
func (m *MultiGraph) Lookup(addr packet.Addr) NodeID {
	if id, ok := m.byAddr[addr]; ok {
		return id
	}
	return topo.None
}

// Merged collapses the ingestion shards into one MultiGraph, serially:
// addresses are visited ascending and each node's successor list is
// built sorted, so the result is identical for every shard layout,
// worker count, and ingestion order.
func (a *Atlas) Merged() *MultiGraph {
	type flat struct {
		seen []Obs
		succ []packet.Addr
	}
	nodes := make(map[packet.Addr]flat)
	a.snapMu.RLock()
	for _, s := range a.shards {
		s.mu.Lock()
		for addr, n := range s.nodes {
			succ := make([]packet.Addr, 0, len(n.succ))
			for w := range n.succ {
				succ = append(succ, w)
			}
			if n.dirty {
				n.seen = sortedObs(n.seen)
				n.dirty = false
			}
			nodes[addr] = flat{seen: append([]Obs(nil), n.seen...), succ: succ}
		}
		s.mu.Unlock()
	}
	a.snapMu.RUnlock()
	addrs := make([]packet.Addr, 0, len(nodes))
	for addr := range nodes {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	m := &MultiGraph{
		addrs:  addrs,
		byAddr: make(map[packet.Addr]NodeID, len(addrs)),
		seen:   make([][]Obs, 0, len(addrs)),
	}
	for _, addr := range addrs {
		id := m.dag.AddVertex()
		m.byAddr[addr] = id
		m.seen = append(m.seen, nodes[addr].seen)
	}
	for _, addr := range addrs {
		u := m.byAddr[addr]
		succ := nodes[addr].succ
		sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
		for _, wa := range succ {
			if w, ok := m.byAddr[wa]; ok {
				m.dag.AddEdge(u, w)
			}
		}
	}
	return m
}

// Snapshot renders the atlas in canonical order as a flat snapshot.
func (a *Atlas) Snapshot() *snapshot {
	m := a.Merged()
	s := &snapshot{}

	a.mu.Lock()
	idxs := make([]int, 0, len(a.pairs))
	for i := range a.pairs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		p := a.pairs[i]
		s.Pairs = append(s.Pairs, traceio.AtlasPair{Pair: i, Src: p.src, Dst: p.dst})
	}
	a.mu.Unlock()

	for id := 0; id < m.NumNodes(); id++ {
		n := snapNode{Addr: m.Addr(NodeID(id)).String()}
		for _, o := range m.Seen(NodeID(id)) {
			n.Seen = append(n.Seen, [2]int{o.Pair, o.Hop})
		}
		s.Nodes = append(s.Nodes, n)
	}
	for id := 0; id < m.NumNodes(); id++ {
		for _, w := range m.Succ(NodeID(id)) {
			s.Edges = append(s.Edges, [2]int{id, int(w)})
		}
	}
	for _, g := range a.Routers() {
		r := traceio.AtlasRouter{Addrs: make([]string, len(g))}
		for i, addr := range g {
			r.Addrs[i] = addr.String()
		}
		s.Routers = append(s.Routers, r)
	}
	s.Diamonds = a.Census()
	return s
}

// FromSnapshot rebuilds an atlas from a flat snapshot.
func FromSnapshot(s *snapshot, opt Options) (*Atlas, error) {
	a := New(opt)
	if err := a.MergeSnapshot(s); err != nil {
		return nil, err
	}
	return a, nil
}

// MergeSnapshot folds a flat snapshot additively into the atlas:
// provenance and successor sets union, alias sets join the growing
// router identities, census encounter counts sum and pair sets / max
// widths union.
func (a *Atlas) MergeSnapshot(s *snapshot) error {
	addrs := make([]packet.Addr, len(s.Nodes))
	for i, n := range s.Nodes {
		addr, err := packet.ParseAddr(n.Addr)
		if err != nil {
			return fmt.Errorf("atlas: node %d: %w", i, err)
		}
		addrs[i] = addr
	}
	for _, e := range s.Edges {
		if e[0] < 0 || e[0] >= len(addrs) || e[1] < 0 || e[1] >= len(addrs) {
			return fmt.Errorf("atlas: edge %v out of range", e)
		}
	}
	a.snapMu.RLock()
	for i := range s.Nodes {
		sh := a.shardOf(addrs[i])
		sh.mu.Lock()
		st := a.node(sh, addrs[i])
		if len(s.Nodes[i].Seen) > 0 {
			for _, o := range s.Nodes[i].Seen {
				st.seen = append(st.seen, Obs{Pair: o[0], Hop: o[1]})
			}
			st.dirty = true
		}
		sh.mu.Unlock()
	}
	for _, e := range s.Edges {
		sh := a.shardOf(addrs[e[0]])
		sh.mu.Lock()
		st := a.node(sh, addrs[e[0]])
		if st.succ == nil {
			st.succ = make(map[packet.Addr]struct{})
		}
		st.succ[addrs[e[1]]] = struct{}{}
		sh.mu.Unlock()
	}
	a.snapMu.RUnlock()
	for i, r := range s.Routers {
		set := make([]packet.Addr, len(r.Addrs))
		for j, as := range r.Addrs {
			addr, err := packet.ParseAddr(as)
			if err != nil {
				return fmt.Errorf("atlas: router %d: %w", i, err)
			}
			set[j] = addr
		}
		a.AddAliasSet(set)
	}
	a.mu.Lock()
	for _, d := range s.Diamonds {
		k := censusKey{div: d.Div, conv: d.Conv}
		e, ok := a.census[k]
		if !ok {
			e = &censusEntry{pairs: make(map[int]struct{}, len(d.Pairs))}
			a.census[k] = e
		}
		e.count += d.Count
		for _, p := range d.Pairs {
			e.pairs[p] = struct{}{}
		}
		if d.MaxWidth > e.maxWidth {
			e.maxWidth = d.MaxWidth
		}
		if d.MaxLength > e.maxLength {
			e.maxLength = d.MaxLength
		}
	}
	for _, p := range s.Pairs {
		a.pairs[p.Pair] = pairInfo{src: p.Src, dst: p.Dst}
	}
	a.mu.Unlock()
	return nil
}

// encodeSnapshot is the serial materialized encode: it slices the flat
// snapshot into AtlasShardNodes-node blocks in one pass, computing each
// node's successor addresses and router representative from the flat
// edge and router sections.
func encodeSnapshot(w io.Writer, s *snapshot) error {
	addrs := make([]packet.Addr, len(s.Nodes))
	for i := range s.Nodes {
		a, err := packet.ParseAddr(s.Nodes[i].Addr)
		if err != nil {
			return err
		}
		if i > 0 && a <= addrs[i-1] {
			return fmt.Errorf("node %d (%s) out of canonical order", i, s.Nodes[i].Addr)
		}
		addrs[i] = a
	}
	succ := make([][]string, len(s.Nodes))
	for _, e := range s.Edges {
		succ[e[0]] = append(succ[e[0]], s.Nodes[e[1]].Addr)
	}
	routerOf := make(map[string]string)
	for _, r := range s.Routers {
		for _, m := range r.Addrs {
			routerOf[m] = r.Addrs[0]
		}
	}
	parts := max(1, (len(s.Nodes)+traceio.AtlasShardNodes-1)/traceio.AtlasShardNodes)
	blocks := make([]*traceio.AtlasShard, parts)
	mins := make([]packet.Addr, parts)
	for p := range blocks {
		lo, hi := traceio.AtlasBlockOf(p, len(s.Nodes))
		blk := &traceio.AtlasShard{Header: traceio.AtlasShardHeader{Shard: p, Nodes: hi - lo}}
		if hi > lo {
			blk.Header.Min, blk.Header.Max = s.Nodes[lo].Addr, s.Nodes[hi-1].Addr
			mins[p] = addrs[lo]
		}
		for i := lo; i < hi; i++ {
			blk.Nodes = append(blk.Nodes, traceio.AtlasNodeV2{
				Addr: s.Nodes[i].Addr, Seen: s.Nodes[i].Seen,
				Succ: succ[i], Router: routerOf[s.Nodes[i].Addr],
			})
		}
		blocks[p] = blk
	}
	for _, r := range s.Routers {
		rep, err := packet.ParseAddr(r.Addrs[0])
		if err != nil {
			return err
		}
		blk := blocks[traceio.AtlasShardForAddr(mins, rep)]
		blk.Routers = append(blk.Routers, r)
		blk.Header.Routers++
	}
	enc, err := traceio.NewAtlasStreamEncoder(w, traceio.AtlasStreamSpec{
		Pairs: s.Pairs, Nodes: len(s.Nodes), Edges: len(s.Edges),
		Routers: len(s.Routers), Shards: parts, Diamonds: s.Diamonds,
	})
	if err != nil {
		return err
	}
	for _, blk := range blocks {
		if err := enc.WriteBlock(blk); err != nil {
			return err
		}
	}
	return enc.Finish()
}

// readSnapshot decodes a whole snapshot file into the flat form,
// checking what only a full read can: every successor names a node, and
// the edges add up to the header's total.
func readSnapshot(path string) (*snapshot, error) {
	r, err := traceio.OpenAtlasFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	s := &snapshot{Pairs: r.Pairs()}
	index := make(map[string]int)
	var succs [][]string
	for i := 0; i < r.NumShards(); i++ {
		sh, err := r.ReadShard(i)
		if err != nil {
			return nil, err
		}
		for _, n := range sh.Nodes {
			index[n.Addr] = len(s.Nodes)
			s.Nodes = append(s.Nodes, snapNode{Addr: n.Addr, Seen: n.Seen})
			succs = append(succs, n.Succ)
		}
		s.Routers = append(s.Routers, sh.Routers...)
	}
	for i, list := range succs {
		for _, dst := range list {
			j, ok := index[dst]
			if !ok {
				return nil, fmt.Errorf("node %s links to unknown address %q", s.Nodes[i].Addr, dst)
			}
			s.Edges = append(s.Edges, [2]int{i, j})
		}
	}
	if len(s.Edges) != r.Header().Edges {
		return nil, fmt.Errorf("nodes hold %d edges, header claims %d", len(s.Edges), r.Header().Edges)
	}
	if s.Diamonds, err = r.ReadDiamonds(); err != nil {
		return nil, err
	}
	return s, nil
}
