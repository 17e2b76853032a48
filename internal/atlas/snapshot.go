package atlas

import (
	"fmt"
	"io"

	"mmlpt/internal/traceio"
)

// Save persists the atlas snapshot atomically, streaming it through
// Atlas.WriteTo so the full snapshot is never held in memory.
func (a *Atlas) Save(path string) error {
	return traceio.WriteFileAtomicStream(path, 0o644, func(w io.Writer) error {
		_, err := a.WriteTo(w)
		return err
	})
}

// Stats summarizes a snapshot for CLI output.
type Stats struct {
	Pairs    int
	Nodes    int
	Edges    int
	Routers  int
	Diamonds int
}

// StatsOf reads the stats from a snapshot header, which carries the
// section totals: no shard is decoded.
func StatsOf(h traceio.AtlasHeader) Stats {
	return Stats{
		Pairs: h.Pairs, Nodes: h.Nodes, Edges: h.Edges,
		Routers: h.Routers, Diamonds: h.Diamonds,
	}
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("atlas: %d pairs, %d addresses, %d links, %d routers, %d distinct diamonds",
		s.Pairs, s.Nodes, s.Edges, s.Routers, s.Diamonds)
}
