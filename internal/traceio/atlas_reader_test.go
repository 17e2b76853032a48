package traceio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mmlpt/internal/packet"
)

// Any block size is byte-deterministic and reads back to the same
// blocks.
func TestAtlasV2SmallShardsRoundTrip(t *testing.T) {
	t.Parallel()
	for _, size := range []int{1, 2, 3, 4, 100} {
		want := wideAtlas(size)
		raw := want.bytes(t)
		if !bytes.Equal(raw, wideAtlas(size).bytes(t)) {
			t.Fatalf("size=%d: encode not deterministic", size)
		}
		got, err := readAtlas(writeBytes(t, raw))
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if len(got.Shards) != len(want.Shards) {
			t.Fatalf("size=%d: read %d shards, wrote %d", size, len(got.Shards), len(want.Shards))
		}
		for i, sh := range got.Shards {
			w := want.Shards[i]
			if sh.Header != w.Header || !reflect.DeepEqual(sh.Nodes, w.Nodes) || len(sh.Routers) != len(w.Routers) {
				t.Fatalf("size=%d shard %d: read %+v, wrote %+v", size, i, sh, w)
			}
		}
	}
}

// The indexed reader routes each address to the shard whose fences own
// it and decodes exactly that block.
func TestAtlasReaderShardRouting(t *testing.T) {
	t.Parallel()
	s := wideAtlas(2)
	r, err := OpenAtlasFile(writeBytes(t, s.bytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if h := r.Header(); h.Version != AtlasVersion || h.Nodes != 9 || h.Edges != 8 || h.Routers != 2 {
		t.Fatalf("Header = %+v", h)
	}
	if got, want := r.NumShards(), 5; got != want { // ceil(9/2)
		t.Fatalf("NumShards = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(r.Pairs(), s.Pairs) {
		t.Fatalf("Pairs = %+v", r.Pairs())
	}
	// Every node address resolves to a shard that actually contains it.
	for _, blk := range s.Shards {
		for _, n := range blk.Nodes {
			si := r.ShardFor(packet.MustParseAddr(n.Addr))
			sh, err := r.ReadShard(si)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, sn := range sh.Nodes {
				if sn.Addr == n.Addr {
					found = true
					if !reflect.DeepEqual(sn.Seen, n.Seen) {
						t.Fatalf("%s: Seen = %v, want %v", n.Addr, sn.Seen, n.Seen)
					}
				}
			}
			if !found {
				t.Fatalf("shard %d does not hold %s", si, n.Addr)
			}
		}
	}
	// Routers live with their representative: 10.0.0.2's component in
	// the shard owning 10.0.0.2, and member 10.0.0.3's node names it.
	si := r.ShardFor(packet.MustParseAddr("10.0.0.2"))
	sh, err := r.ReadShard(si)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Routers) != 1 || sh.Routers[0].Addrs[0] != "10.0.0.2" {
		t.Fatalf("shard %d routers = %+v", si, sh.Routers)
	}
	sh3, err := r.ReadShard(r.ShardFor(packet.MustParseAddr("10.0.0.3")))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sh3.Nodes {
		if n.Addr == "10.0.0.3" && n.Router != "10.0.0.2" {
			t.Fatalf("node 10.0.0.3 router = %q, want 10.0.0.2", n.Router)
		}
	}
	// Successor lists carry the edges: node 10.0.0.1 links to .2 and .3.
	sh1, err := r.ReadShard(r.ShardFor(packet.MustParseAddr("10.0.0.1")))
	if err != nil {
		t.Fatal(err)
	}
	if got := sh1.Nodes[0].Succ; !reflect.DeepEqual(got, []string{"10.0.0.2", "10.0.0.3"}) {
		t.Fatalf("10.0.0.1 succ = %v", got)
	}
	if _, err := r.ReadShard(5); err == nil {
		t.Fatal("ReadShard past the last shard must error")
	}
	ds, err := r.ReadDiamonds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, s.Diamonds) {
		t.Fatalf("diamonds = %+v", ds)
	}
}

// Canonical-order violations inside a block fail its ReadShard: that
// check is what guarantees every accepted block re-encodes (shard
// fences require ordered, parseable addresses). Each mutation edits the
// block in place, so fences and offsets stay valid.
func TestAtlasDecodeRejectsNonCanonicalNodes(t *testing.T) {
	t.Parallel()
	var nodes []AtlasNodeV2
	for _, a := range []string{"10.0.0.1", "10.0.0.3", "10.0.0.5", "10.0.0.9"} {
		nodes = append(nodes, AtlasNodeV2{Addr: a, Seen: [][2]int{{0, 1}}})
	}
	routers := []AtlasRouter{{Addrs: []string{"10.0.0.3", "10.0.0.5"}}}
	raw := string((&atlasFile{Shards: blocks(nodes, routers, 4)}).bytes(t))
	line3, line5 := `{"addr":"10.0.0.3",`, `{"addr":"10.0.0.5",`
	swapped := strings.NewReplacer(line3, line5, line5, line3)
	for name, in := range map[string]string{
		"out of order":   swapped.Replace(raw),
		"duplicate":      strings.Replace(raw, line5, line3, 1),
		"not an address": strings.Replace(raw, line5, `{"addr":"10.0.0.x",`, 1),
		"bogus router":   strings.Replace(raw, `{"addrs":["10.0.0.3"`, `{"addrs":["1x.0.0.3"`, 1),
	} {
		if in == raw {
			t.Fatalf("%s: mutation did not change input", name)
		}
		if _, err := readAtlas(writeBytes(t, []byte(in))); err == nil {
			t.Errorf("%s: reader accepted a non-canonical block", name)
		}
	}
}

// Corrupt structure fails loudly at open or read time.
func TestAtlasReaderHostileInput(t *testing.T) {
	t.Parallel()
	raw := wideAtlas(2).bytes(t)
	// Truncations: any prefix must fail open or fail reads, never panic.
	for n := 0; n < len(raw); n += 97 {
		_, _ = readAtlas(writeBytes(t, raw[:n]))
	}
	// A trailer pointing outside the file.
	mangled := bytes.Replace(raw, []byte(`"kind":"atlas-trailer","version":2,"index_off":`), nil, 1)
	if _, err := OpenAtlasFile(writeBytes(t, mangled)); err == nil {
		t.Error("open accepted a file with a mangled trailer")
	}
	// Garbage where the index should be.
	idx := bytes.Index(raw, []byte(`{"kind":"atlas-index"`))
	corrupt := append([]byte(nil), raw...)
	copy(corrupt[idx:], []byte(`XXXXX`))
	if _, err := OpenAtlasFile(writeBytes(t, corrupt)); err == nil {
		t.Error("open accepted a corrupt index")
	}
	// Header totals the index does not back, edited in place so every
	// offset stays valid: 9 nodes and 2 routers claimed as 8 and 3.
	header, body, _ := strings.Cut(string(raw), "\n")
	for _, lie := range [][2]string{{`"nodes":9`, `"nodes":8`}, {`"routers":2`, `"routers":3`}} {
		in := strings.Replace(header, lie[0], lie[1], 1) + "\n" + body
		if _, err := OpenAtlasFile(writeBytes(t, []byte(in))); err == nil || !strings.Contains(err.Error(), "header claims") {
			t.Errorf("header %s: open err = %v, want a header/index mismatch", lie[1], err)
		}
	}
}

// Structural lies inside a valid-looking file fail at open or in the
// read of the section that holds them.
func TestAtlasV2DecodeRejections(t *testing.T) {
	t.Parallel()
	raw := string(wideAtlas(4).bytes(t))
	lastLine := strings.LastIndex(strings.TrimRight(raw, "\n"), "\n") + 1
	cases := map[string]string{
		"block fence lies":     strings.Replace(raw, `"min":"10.0.0.1"`, `"min":"10.0.0.0"`, 1),
		"fences lie to nodes":  strings.Replace(raw, `"min":"10.0.0.5","max"`, `"min":"10.0.0.6","max"`, 2),
		"shard count mismatch": strings.Replace(raw, `"shards":3`, `"shards":2`, 1),
		"block count lies":     strings.Replace(raw, `{"shard":1,"nodes":4`, `{"shard":1,"nodes":3`, 1),
		"missing trailer":      raw[:lastLine],
		"zero shards":          `{"version":2,"kind":"atlas"}` + "\n",
		"shards gt nodes":      `{"version":2,"kind":"atlas","nodes":1,"shards":5}` + "\n",
	}
	for name, in := range cases {
		if in == raw {
			t.Fatalf("%s: mutation did not change input", name)
		}
		if _, err := readAtlas(writeBytes(t, []byte(in))); err == nil {
			t.Errorf("%s: reader accepted corrupt input", name)
		}
	}
}
