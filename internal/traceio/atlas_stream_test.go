package traceio

import (
	"bytes"
	"strings"
	"testing"
)

// Re-streaming a file's own shard blocks through the stream encoder
// reproduces the file byte for byte: the encoder is a faithful dual of
// the reader, and AppendAtlasShardBlock accepts every block a canonical
// encode produces.
func TestStreamEncoderRoundTripsReaderBlocks(t *testing.T) {
	t.Parallel()
	for _, size := range []int{2, 3, AtlasShardNodes} {
		want := wideAtlas(size).bytes(t)
		r, err := OpenAtlasFile(writeBytes(t, want))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		h := r.Header()
		diamonds, err := r.ReadDiamonds()
		if err != nil {
			t.Fatal(err)
		}

		var got bytes.Buffer
		enc, err := NewAtlasStreamEncoder(&got, AtlasStreamSpec{
			Pairs: r.Pairs(), Nodes: h.Nodes, Edges: h.Edges,
			Routers: h.Routers, Shards: r.NumShards(), Diamonds: diamonds,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.NumShards(); i++ {
			sh, err := r.ReadShard(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.WriteBlock(sh); err != nil {
				t.Fatalf("size=%d shard %d: %v", size, i, err)
			}
		}
		if err := enc.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("size=%d: re-streamed bytes differ from the original encode", size)
		}
	}
}

// The encoder enforces the format invariants a hand-rolled producer
// could violate: totals must match the spec, blocks must arrive in
// order, fences must ascend.
func TestStreamEncoderRejectsInvalidSequences(t *testing.T) {
	t.Parallel()
	block := func(shard int, min, max string, nodes ...AtlasNodeV2) *AtlasShard {
		return &AtlasShard{
			Header: AtlasShardHeader{Shard: shard, Nodes: len(nodes), Min: min, Max: max},
			Nodes:  nodes,
		}
	}
	n1 := AtlasNodeV2{Addr: "10.0.0.1"}
	n2 := AtlasNodeV2{Addr: "10.0.0.2"}

	t.Run("node total mismatch", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.1", "10.0.0.1", n1)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Finish(); err == nil || !strings.Contains(err.Error(), "node") {
			t.Fatalf("Finish after 1 of 2 nodes: err = %v", err)
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.1", "10.0.0.1", n1)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Finish(); err == nil {
			t.Fatal("Finish after 1 of 2 shards: err = nil")
		}
	})
	t.Run("out of order shard", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(1, "10.0.0.2", "10.0.0.2", n2)); err == nil {
			t.Fatal("shard 1 before shard 0: err = nil")
		}
	})
	t.Run("descending fences", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.2", "10.0.0.2", n2)); err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(1, "10.0.0.1", "10.0.0.1", n1)); err == nil {
			t.Fatal("fence below previous max: err = nil")
		}
	})
	t.Run("unsorted nodes inside block", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.2", "10.0.0.1", n2, n1)); err == nil {
			t.Fatal("descending nodes: err = nil")
		}
	})
	t.Run("fence not matching first node", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.9", "10.0.0.1", n1)); err == nil {
			t.Fatal("min fence != first node: err = nil")
		}
	})
	t.Run("zero shards", func(t *testing.T) {
		if _, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{}); err == nil {
			t.Fatal("spec with 0 shards: err = nil")
		}
	})
	t.Run("multiple shards for empty snapshot", func(t *testing.T) {
		if _, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Shards: 2}); err == nil {
			t.Fatal("2 shards for 0 nodes: err = nil")
		}
	})
}
