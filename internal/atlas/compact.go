// Streaming compaction: merge a base snapshot and a series of deltas
// into one full snapshot without ever holding a decoded snapshot in
// memory. The snapshot layout makes this a k-way merge: within one file
// the shard fences ascend and nodes within a shard ascend, so each
// input is a single sorted stream of nodes readable one shard block at
// a time through AtlasReader.ReadShard cursors. Two passes over those
// cursors — one to fix the output header totals and partition fences,
// one to build and emit the merged blocks — bound peak memory to a few
// shard blocks per input regardless of how many addresses the inputs
// hold.
//
// Trust model: Compact trusts what traceio.AtlasReader trusts. Each
// block is checked against the index and for canonical node order as it
// is read, but successor targets are not validated against the global
// node set; a well-formed snapshot cannot name a successor it has no
// node for.
package atlas

import (
	"fmt"
	"io"
	"runtime"
	"slices"

	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

// Compact merges a base snapshot (optional: "" starts from empty) and a
// series of delta snapshots into one full snapshot at outPath, written
// atomically in the current encoding. This is how a long-running
// survey's serving view advances: publish cheap deltas, compact them
// into the base out of band, Swap the service to the compacted file.
// Merging is additive — provenance and successor sets union, alias sets
// join, census counts sum — so compacting a base and its disjoint
// deltas reproduces the snapshot of the atlas that ingested every
// record directly, and compacting one input rewrites it unchanged.
func Compact(outPath, basePath string, deltaPaths []string, opt Options) error {
	return CompactWithProgress(outPath, basePath, deltaPaths, opt, nil)
}

// CompactWithProgress is Compact with a progress callback (may be nil);
// each call is one log-style line, printf-formatted without a newline.
func CompactWithProgress(outPath, basePath string, deltaPaths []string, opt Options, progress func(format string, args ...any)) error {
	if progress == nil {
		progress = func(string, ...any) {}
	}
	paths := make([]string, 0, 1+len(deltaPaths))
	if basePath != "" {
		paths = append(paths, basePath)
	}
	paths = append(paths, deltaPaths...)

	readers := make([]*traceio.AtlasReader, 0, len(paths))
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, p := range paths {
		r, err := traceio.OpenAtlasFile(p)
		if err != nil {
			return fmt.Errorf("compact: %s: %w", p, err)
		}
		readers = append(readers, r)
		h := r.Header()
		progress("input %s: %d nodes, %d edges, %d routers", p, h.Nodes, h.Edges, h.Routers)
	}

	workers := opt.MergeWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	plan, err := compactPlan(paths, readers, workers > 1)
	if err != nil {
		return err
	}
	progress("plan: %d nodes, %d edges, %d routers, %d shards",
		plan.nodes, plan.edges, len(plan.routers), plan.parts)

	err = traceio.WriteFileAtomicStream(outPath, 0o644, func(w io.Writer) error {
		return compactEmit(w, paths, readers, plan, workers, progress)
	})
	if err != nil {
		return fmt.Errorf("compact: %s: %w", outPath, err)
	}
	return nil
}

// compactCursor walks one input's nodes in global canonical order, one
// shard block resident at a time, optionally decoding the next block in
// a depth-1 prefetch goroutine while the current one is consumed.
type compactCursor struct {
	r     *traceio.AtlasReader
	path  string
	next  int // next shard index to request
	ahead chan prefetched
	nodes []traceio.AtlasNodeV2
	pos   int
	addr  packet.Addr
	done  bool
	// onShard, when set, observes every loaded shard (pass 1 collects
	// router sections this way, since routers live inside blocks).
	onShard func(*traceio.AtlasShard) error
}

type prefetched struct {
	sh  *traceio.AtlasShard
	err error
}

func newCompactCursor(r *traceio.AtlasReader, path string, prefetch bool, onShard func(*traceio.AtlasShard) error) *compactCursor {
	c := &compactCursor{r: r, path: path, onShard: onShard}
	if prefetch {
		c.ahead = make(chan prefetched, 1)
	}
	return c
}

func (c *compactCursor) fetch(i int) (*traceio.AtlasShard, error) {
	if c.ahead != nil {
		if i > 0 {
			p := <-c.ahead
			if i+1 < c.r.NumShards() {
				go func(j int) {
					sh, err := c.r.ReadShard(j)
					c.ahead <- prefetched{sh, err}
				}(i + 1)
			}
			return p.sh, p.err
		}
		if c.r.NumShards() > 1 {
			go func() {
				sh, err := c.r.ReadShard(1)
				c.ahead <- prefetched{sh, err}
			}()
		}
	}
	return c.r.ReadShard(i)
}

// load advances to the next non-empty shard block, or marks the cursor
// done.
func (c *compactCursor) load() error {
	for c.next < c.r.NumShards() {
		sh, err := c.fetch(c.next)
		c.next++
		if err != nil {
			return fmt.Errorf("compact: %s: %w", c.path, err)
		}
		if c.onShard != nil {
			if err := c.onShard(sh); err != nil {
				return err
			}
		}
		if len(sh.Nodes) == 0 {
			continue
		}
		c.nodes, c.pos = sh.Nodes, 0
		return c.parse()
	}
	c.done = true
	return nil
}

func (c *compactCursor) parse() error {
	addr, err := packet.ParseAddr(c.nodes[c.pos].Addr)
	if err != nil {
		return fmt.Errorf("compact: %s: node %q: %w", c.path, c.nodes[c.pos].Addr, err)
	}
	c.addr = addr
	return nil
}

func (c *compactCursor) advance() error {
	c.pos++
	if c.pos < len(c.nodes) {
		return c.parse()
	}
	c.nodes = nil
	return c.load()
}

// drain abandons the cursor's prefetch goroutine, if one is in flight,
// so a failed pass does not leak it.
func (c *compactCursor) drain() {
	if c.ahead == nil || c.done {
		return
	}
	if c.next > 0 && c.next < c.r.NumShards() {
		<-c.ahead
	}
}

// compactMerge runs the k-way merge: fn sees each distinct address once,
// ascending, with the per-input node entries carrying it in input order.
func compactMerge(cursors []*compactCursor, fn func(addr packet.Addr, group []*traceio.AtlasNodeV2) error) error {
	for _, c := range cursors {
		if err := c.load(); err != nil {
			return err
		}
	}
	group := make([]*traceio.AtlasNodeV2, 0, len(cursors))
	for {
		var min packet.Addr
		live := false
		for _, c := range cursors {
			if !c.done && (!live || c.addr < min) {
				min, live = c.addr, true
			}
		}
		if !live {
			return nil
		}
		group = group[:0]
		for _, c := range cursors {
			if !c.done && c.addr == min {
				group = append(group, &c.nodes[c.pos])
			}
		}
		if err := fn(min, group); err != nil {
			return err
		}
		for _, c := range cursors {
			if !c.done && c.addr == min {
				if err := c.advance(); err != nil {
					return err
				}
			}
		}
	}
}

// compactState is everything pass 1 fixes before a byte is written:
// exact totals, partition fences, and the small sections.
type compactState struct {
	nodes, edges, parts int
	mins                []packet.Addr
	sections
}

func compactPlan(paths []string, readers []*traceio.AtlasReader, prefetch bool) (*compactState, error) {
	st := &compactState{}

	// The small sections accumulate in a scratch atlas, which then
	// freezes them exactly as WriteTo freezes a live one: pairs
	// overwrite by index with later inputs winning, diamond entries sum
	// counts and union pair sets, router sets union transitively.
	small := New(Options{Shards: 1})
	census := small.census
	for i, r := range readers {
		for _, p := range r.Pairs() {
			small.pairs[p.Pair] = pairInfo{src: p.Src, dst: p.Dst}
		}
		ds, err := r.ReadDiamonds()
		if err != nil {
			return nil, fmt.Errorf("compact: %s: %w", paths[i], err)
		}
		for _, d := range ds {
			k := censusKey{div: d.Div, conv: d.Conv}
			e, ok := census[k]
			if !ok {
				e = &censusEntry{pairs: make(map[int]struct{}, len(d.Pairs))}
				census[k] = e
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
	}

	// Pass 1 over the node streams: count merged nodes and edges,
	// record a fence at every partition boundary, and collect the
	// router sections the shard blocks carry.
	cursors := make([]*compactCursor, len(readers))
	for i, r := range readers {
		path := paths[i]
		cursors[i] = newCompactCursor(r, path, prefetch, func(sh *traceio.AtlasShard) error {
			for _, rt := range sh.Routers {
				set := make([]packet.Addr, len(rt.Addrs))
				for j, as := range rt.Addrs {
					addr, err := packet.ParseAddr(as)
					if err != nil {
						return fmt.Errorf("compact: %s: router address %q: %w", path, as, err)
					}
					set[j] = addr
				}
				small.AddAliasSet(set)
			}
			return nil
		})
	}
	var canon canonChecker
	var succ []packet.Addr
	err := compactMerge(cursors, func(addr packet.Addr, group []*traceio.AtlasNodeV2) error {
		if st.nodes%traceio.AtlasShardNodes == 0 {
			st.mins = append(st.mins, addr)
		}
		st.nodes++
		if len(group) == 1 && canon.succs(group[0].Succ) {
			// Single contributor with an already-canonical successor
			// list: its length is the merged edge count, no
			// materialization needed. Pass 2 makes the same check, so
			// the two passes always agree on the total.
			st.edges += len(group[0].Succ)
			return nil
		}
		succ = succ[:0]
		for _, n := range group {
			for _, s := range n.Succ {
				a, err := packet.ParseAddr(s)
				if err != nil {
					return fmt.Errorf("compact: successor %q: %w", s, err)
				}
				succ = append(succ, a)
			}
		}
		st.edges += len(dedupAddrs(succ))
		return nil
	})
	if err != nil {
		for _, c := range cursors {
			c.drain()
		}
		return nil, err
	}
	st.parts = len(st.mins)
	if st.parts == 0 {
		st.parts = 1
		st.mins = make([]packet.Addr, 1)
	}

	st.sections = small.sections(st.mins)
	return st, nil
}

// dedupAddrs sorts addrs and removes adjacent duplicates in place.
func dedupAddrs(addrs []packet.Addr) []packet.Addr {
	slices.Sort(addrs)
	out := addrs[:0]
	for i, a := range addrs {
		if i == 0 || a != addrs[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// canonChecker verifies, allocation-free, that a decoded node already
// is in the merged canonical form — the overwhelmingly common case when
// deltas are disjoint and inputs are our own encoder's output. Nodes
// that pass skip the parse/sort/re-render machinery entirely; nodes
// that fail (non-canonical strings like "010.0.0.1", unsorted lists,
// duplicates) fall back to the general path, so the output bytes never
// depend on which route a node took.
type canonChecker struct {
	scratch []byte
}

// addr parses s and reports whether s is its value's canonical render.
func (c *canonChecker) addr(s string) (packet.Addr, bool, error) {
	a, err := packet.ParseAddr(s)
	if err != nil {
		return 0, false, err
	}
	c.scratch = a.AppendText(c.scratch[:0])
	return a, string(c.scratch) == s, nil
}

// succs reports whether a successor list is canonical: every string the
// canonical render of its value, values strictly ascending. Parse
// errors surface as !ok; the general path re-parses and reports them.
func (c *canonChecker) succs(succ []string) bool {
	var prev packet.Addr
	for i, s := range succ {
		a, ok, err := c.addr(s)
		if err != nil || !ok {
			return false
		}
		if i > 0 && a <= prev {
			return false
		}
		prev = a
	}
	return true
}

// seen reports whether an observation list is canonical: strictly
// ascending (pair, hop), hence deduped.
func (c *canonChecker) seen(seen [][2]int) bool {
	for i := 1; i < len(seen); i++ {
		a, b := seen[i-1], seen[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			return false
		}
	}
	return true
}

// compactEmit is pass 2: re-merge the node streams, build each output
// block, and stream it out — with workers > 1, block JSON rendering is
// pipelined through a bounded in-flight window so the (serial) merge,
// the (parallel) marshal and the (serial, ordered) write overlap.
func compactEmit(w io.Writer, paths []string, readers []*traceio.AtlasReader, st *compactState, workers int, progress func(format string, args ...any)) error {
	enc, err := traceio.NewAtlasStreamEncoder(w, traceio.AtlasStreamSpec{
		Pairs: st.pairs, Nodes: st.nodes, Edges: st.edges,
		Routers: len(st.routers), Shards: st.parts, Diamonds: st.diamonds,
	})
	if err != nil {
		return err
	}

	sink := newBlockSink(enc, workers)
	cursors := make([]*compactCursor, len(readers))
	for i, r := range readers {
		cursors[i] = newCompactCursor(r, paths[i], workers > 1, nil)
	}

	part := 0
	var blk *traceio.AtlasShard
	startBlock := func(p int) {
		lo, hi := traceio.AtlasBlockOf(p, st.nodes)
		blk = &traceio.AtlasShard{
			Header: traceio.AtlasShardHeader{Shard: p, Nodes: hi - lo, Routers: len(st.routersByPart[p])},
		}
		if hi > lo {
			blk.Nodes = make([]traceio.AtlasNodeV2, 0, hi-lo)
		}
	}
	finishBlock := func() error {
		if len(blk.Nodes) > 0 {
			blk.Header.Min = blk.Nodes[0].Addr
			blk.Header.Max = blk.Nodes[len(blk.Nodes)-1].Addr
		}
		for _, ri := range st.routersByPart[part] {
			blk.Routers = append(blk.Routers, st.routers[ri])
		}
		err := sink.emit(blk)
		progress("wrote shard %d/%d", part+1, st.parts)
		part++
		blk = nil
		return err
	}

	startBlock(0)
	var canon canonChecker
	var seen []Obs
	var succ []packet.Addr
	var scratch []byte
	err = compactMerge(cursors, func(addr packet.Addr, group []*traceio.AtlasNodeV2) error {
		if len(blk.Nodes) == blk.Header.Nodes {
			if err := finishBlock(); err != nil {
				return err
			}
			startBlock(part)
		}
		if len(group) == 1 {
			// Already-canonical single-contributor node: reuse its
			// strings and slices as-is (the decoded shard is dropped
			// right after, so nothing aliases them). Only the router
			// assignment is recomputed — it reflects the merged union,
			// not any one input.
			in := group[0]
			if a, ok, err := canon.addr(in.Addr); err == nil && ok && a == addr &&
				canon.seen(in.Seen) && canon.succs(in.Succ) {
				n := traceio.AtlasNodeV2{Addr: in.Addr, Router: st.routerOf[addr]}
				if len(in.Seen) > 0 {
					n.Seen = in.Seen
				}
				if len(in.Succ) > 0 {
					n.Succ = in.Succ
				}
				blk.Nodes = append(blk.Nodes, n)
				return nil
			}
		}
		scratch = addr.AppendText(scratch[:0])
		n := traceio.AtlasNodeV2{Addr: string(scratch), Router: st.routerOf[addr]}
		seen, succ = seen[:0], succ[:0]
		for _, in := range group {
			for _, o := range in.Seen {
				seen = append(seen, Obs{Pair: o[0], Hop: o[1]})
			}
			for _, s := range in.Succ {
				a, err := packet.ParseAddr(s)
				if err != nil {
					return fmt.Errorf("compact: successor %q: %w", s, err)
				}
				succ = append(succ, a)
			}
		}
		if len(seen) > 0 {
			canon := sortedObs(seen)
			n.Seen = make([][2]int, len(canon))
			for i, o := range canon {
				n.Seen[i] = [2]int{o.Pair, o.Hop}
			}
			seen = seen[:0]
		}
		if u := dedupAddrs(succ); len(u) > 0 {
			// Re-render rather than reuse the input strings: parsing and
			// re-rendering is what canonicalizes the bytes.
			n.Succ = make([]string, len(u))
			for i, a := range u {
				scratch = a.AppendText(scratch[:0])
				n.Succ[i] = string(scratch)
			}
		}
		blk.Nodes = append(blk.Nodes, n)
		return nil
	})
	if err != nil {
		for _, c := range cursors {
			c.drain()
		}
		sink.abort()
		return err
	}
	for part < st.parts {
		if blk == nil {
			startBlock(part)
		}
		if err := finishBlock(); err != nil {
			return err
		}
	}
	if err := sink.wait(); err != nil {
		return err
	}
	return enc.Finish()
}

// blockSink writes finished blocks to the stream encoder. With more
// than one worker it renders block JSON in parallel goroutines while a
// dedicated writer drains them in submission order; the bounded jobs
// channel keeps at most a window of blocks in memory.
type blockSink struct {
	enc     *traceio.AtlasStreamEncoder
	jobs    chan *blockJob
	done    chan struct{}
	err     error // writer-side error, read after done closes
	aborted bool
}

type blockJob struct {
	blk   *traceio.AtlasShard
	raw   []byte
	hdr   traceio.AtlasShardHeader
	edges int
	err   error
	ready chan struct{}
}

func newBlockSink(enc *traceio.AtlasStreamEncoder, workers int) *blockSink {
	s := &blockSink{enc: enc}
	if workers <= 1 {
		return s
	}
	s.jobs = make(chan *blockJob, workers)
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		for j := range s.jobs {
			<-j.ready
			if s.err != nil {
				continue
			}
			if j.err != nil {
				s.err = j.err
				continue
			}
			s.err = s.enc.WriteEncodedBlock(j.raw, j.hdr, j.edges)
		}
	}()
	return s
}

func (s *blockSink) emit(blk *traceio.AtlasShard) error {
	if s.jobs == nil {
		return s.enc.WriteBlock(blk)
	}
	j := &blockJob{blk: blk, hdr: blk.Header, ready: make(chan struct{})}
	go func() {
		defer close(j.ready)
		j.raw, j.edges, j.err = traceio.AppendAtlasShardBlock(nil, j.blk)
	}()
	s.jobs <- j
	return nil
}

func (s *blockSink) wait() error {
	if s.jobs == nil {
		return nil
	}
	close(s.jobs)
	<-s.done
	return s.err
}

func (s *blockSink) abort() {
	if s.jobs == nil || s.aborted {
		return
	}
	s.aborted = true
	close(s.jobs)
	<-s.done
}
